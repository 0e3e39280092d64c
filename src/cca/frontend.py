"""PHP frontend: source collection and lexical analysis.

The lexer recognises the PHP subset handled by the rest of the pipeline:
variables and superglobals, assignments, string/numeric/bool/null literals,
arithmetic/concatenation/comparison/logic operators, if/elseif/else,
switch/case, while/for/foreach loops, function definitions and calls, and the
echo/print/exit output constructs.  Object-oriented code and anything else
outside the subset raises UnsupportedSyntaxError so callers can skip the file.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import LexError, UnsupportedSyntaxError

log = logging.getLogger("cca.frontend")

# --- token kind groups -------------------------------------------------------
# The four counted groups. VAR / FUNC_CALL / IDENT plus the unsupported-syntax
# markers below sit outside them.

KEYWORD_KINDS = {
    "if": "IF",
    "elseif": "ELSEIF",
    "else": "ELSE",
    "switch": "SWITCH",
    "case": "CASE",
    "default": "DEFAULT",
    "break": "BREAK",
    "continue": "CONTINUE",
    "while": "WHILE",
    "do": "DO",
    "for": "FOR",
    "foreach": "FOREACH",
    "as": "AS",
    "function": "FUNCTION",
    "return": "RETURN",
    "global": "GLOBAL",
    "array": "ARRAY",
    "isset": "ISSET",
}

OPERATOR_KINDS = {
    ".=": "CONCAT_EQUALS",
    "==": "EQ",
    "!=": "NEQ",
    "<=": "LE",
    ">=": "GE",
    "&&": "AND",
    "||": "OR",
    "=": "EQUALS",
    "+": "PLUS",
    "-": "MINUS",
    "*": "TIMES",
    "/": "DIVIDE",
    "%": "MOD",
    ".": "CONCAT",
    "<": "LT",
    ">": "GT",
    "!": "NOT",
}

METACHAR_KINDS = {
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ";": "SEMI",
    ",": "COMMA",
    ":": "COLON",
}

LITERAL_KINDS = ("STRING", "NUMBER", "BOOL", "NULL")

TOKEN_GROUPS = {
    "keywords": tuple(sorted(set(KEYWORD_KINDS.values()))),
    "operators": tuple(sorted(set(OPERATOR_KINDS.values()))),
    "metacharacters": tuple(sorted(set(METACHAR_KINDS.values()))),
    "literals": LITERAL_KINDS,
}

# Constructs that are valid PHP but outside the supported subset.  Seeing one
# aborts the file rather than producing silently wrong dataflow.
UNSUPPORTED_WORDS = frozenset(
    "class new extends implements interface trait abstract final "
    "public private protected static namespace use const clone "
    "try catch finally throw yield "
    "endif endwhile endfor endforeach endswitch".split()
)

# echo/print/exit take arguments without parentheses; they still lex as
# call names so task knowledge can rewrite them later.
CALL_WORDS = frozenset({"echo", "print", "exit", "die"})

WORD_LITERALS = {"true": "BOOL", "false": "BOOL", "null": "NULL"}


@dataclass(slots=True)
class LexToken:
    type: str
    value: str
    line: int


@dataclass
class SourceFile:
    path: Path
    rel: str
    file_id: int
    text: str = field(repr=False)


# --- lexer -------------------------------------------------------------------

def _operator_alternation() -> str:
    # Longest lexeme first so ".=" wins over "." and "==" over "=".
    ops = sorted(OPERATOR_KINDS, key=len, reverse=True)
    return "|".join(re.escape(op) for op in ops)


# Only COMMENT, UNSUPPORTED_OP and FIXED share first characters, so they
# keep this order, and MISMATCH comes last; the rest go most frequent first.
_RULES = [
    ("VAR", r"\$[A-Za-z_]\w*"),
    ("WORD", r"[A-Za-z_]\w*"),
    ("COMMENT", r"/\*[\s\S]*?\*/|(?://|\#)[^\n]*"),
    ("UNSUPPORTED_OP", r"->|::|=>|<<<|\?|@|&(?!&)|\|(?!\|)"),
    ("FIXED", _operator_alternation() + r"|[(){}\[\];,:]"),
    ("STRING", r'"(?:[^"\\]|\\[\s\S])*"|\'(?:[^\'\\]|\\[\s\S])*\''),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("END", r"\Z"),
    ("MISMATCH", r"."),
]

# Each match carries the blank space before it as group 1, so blanks cost
# no match of their own; END takes blanks that end a region.
_MASTER = re.compile(r"([ \t\r\f\n]*)(?:"
                     + "|".join(f"(?P<{name}>{pat})" for name, pat in _RULES)
                     + ")")

_FIXED_KINDS = {**OPERATOR_KINDS, **METACHAR_KINDS}

# Kind of each reserved word, lower-cased; None marks one outside the subset.
_WORD_KINDS = {**KEYWORD_KINDS, **dict.fromkeys(CALL_WORDS, "FUNC_CALL"),
               **WORD_LITERALS, **dict.fromkeys(UNSUPPORTED_WORDS)}

_OPEN_TAG = re.compile(r"<\?(php\b|=)?")

# A word followed by "(" is a call name; the look-ahead may pass "?>".
_CALL_AHEAD = re.compile(r"\s*\(")


def _php_regions(text: str, path: str) -> list[tuple[int, int, int]]:
    """Return (start, end, start_line) spans of code between <?php and ?>."""
    regions = []
    pos = 0
    line = 1
    while True:
        m = _OPEN_TAG.search(text, pos)
        if m is None:
            break
        line += text.count("\n", pos, m.start())
        if m.group(1) != "php":
            raise UnsupportedSyntaxError(
                f"unsupported open tag {m.group(0)!r}", path, line
            )
        close = text.find("?>", m.end())
        end = close if close != -1 else len(text)
        regions.append((m.end(), end, line))
        line += text.count("\n", m.start(), end)
        pos = end + 2 if close != -1 else len(text)
    return regions


def lex(text: str, path: str = "<string>") -> list[LexToken]:
    """Tokenise one PHP source text into ⟨type, value, line⟩ triples.

    Text outside <?php ... ?> regions is ignored (but still counted for line
    numbers).  Raises LexError on unknown characters and
    UnsupportedSyntaxError on out-of-subset constructs.
    """
    tokens: list[LexToken] = []
    append = tokens.append
    for start, end, line in _php_regions(text, path):
        for m in _MASTER.finditer(text, start, end):
            line += m.group(1).count("\n")
            kind = m.lastgroup
            value = m.group(kind)
            if kind == "FIXED":
                append(LexToken(_FIXED_KINDS[value], value, line))
            elif kind == "VAR":
                append(LexToken("VAR", value, line))
            elif kind == "WORD":
                word = value.lower()
                if word not in _WORD_KINDS:
                    # A name immediately applied to arguments is a call;
                    # anything else is a bare constant-like identifier.
                    append(LexToken("FUNC_CALL" if _CALL_AHEAD.match(
                        text, m.end()) else "IDENT", value, line))
                elif _WORD_KINDS[word] is None:
                    raise UnsupportedSyntaxError(
                        f"keyword {value!r} is outside the supported subset",
                        path, line)
                else:
                    append(LexToken(_WORD_KINDS[word], value, line))
            elif kind == "STRING" or kind == "NUMBER":
                append(LexToken(kind, value, line))
                line += value.count("\n")
            elif kind == "COMMENT":
                line += value.count("\n")
            elif kind == "UNSUPPORTED_OP":
                raise UnsupportedSyntaxError(
                    f"construct {value!r} is outside the supported subset",
                    path, line)
            elif kind == "MISMATCH":
                raise LexError(
                    f"character {value!r} matches no lexer rule", path, line)
    return tokens


# --- source collection -------------------------------------------------------

def collect_sources(root: Path | str) -> list[SourceFile]:
    """Collect .php files under a directory, sorted by relative path.

    Links to directories are not followed and unreadable directories are
    passed over, as `Path.rglob` does.  Files that cannot be read or are
    not valid UTF-8 text are skipped with a logged warning.  file_id is the
    position in the sorted, readable list.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"source directory not found: {root}")
    rels: list[str] = []
    stack = [("", str(root))]
    while stack:
        prefix, top = stack.pop()
        try:
            with os.scandir(top) as entries:
                for entry in entries:
                    name = entry.name
                    if entry.is_dir(follow_symlinks=False):
                        stack.append((f"{prefix}{name}/", entry.path))
                    # the Path.suffix rule: a file named ".php" has none
                    elif (len(name) > 4 and name[-4:].lower() == ".php"
                          and entry.is_file()):
                        rels.append(prefix + name)
        except OSError:
            continue
    sources: list[SourceFile] = []
    for rel in sorted(rels):
        path = root / rel
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            log.warning("skipping %s: %s", path, exc)
            continue
        sources.append(SourceFile(path, rel, len(sources), text))
    return sources


def dump_lextokens(tokens: list[LexToken]) -> str:
    """Render tokens one per line as type<TAB>value<TAB>line."""
    return "\n".join(f"{t.type}\t{t.value}\t{t.line}" for t in tokens)
