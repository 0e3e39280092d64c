"""Seeded inputs for the whole-protocol benchmark.

Every builder returns an `Inputs`: the PHP source tree the program will
see, plus what the checks may expect of it.  The seed changes names
only (directory tags, variable names, literals, request keys), always to
strings of the same length, so every seed yields the same token streams,
the same index shape and byte-identical container sizes; only the text
the owner encrypts differs.
"""

from __future__ import annotations

import random
import re
import string
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def corpus() -> dict[str, dict[str, str]]:
    """The bundled test corpus, imported read-only from the checkout."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    from corpus import CORPUS
    return CORPUS


@dataclass(frozen=True)
class Expected:
    """Findings one generated file has by construction, for one task."""

    count: int
    sink_line: int = 0
    source_line: int = 0


@dataclass
class Inputs:
    """A generated source tree and the facts the checks hold it to."""

    files: dict[str, str]
    # file -> task -> findings known by construction (chain files)
    expected: dict[str, dict[str, Expected]] = field(default_factory=dict)
    # clone file -> the verbatim file it was cloned from (scaled trees)
    originals: dict[str, str] = field(default_factory=dict)


def write_tree(root: Path, files: dict[str, str]) -> None:
    """Write a source tree under root, which must not exist yet."""
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def _tags(rng: random.Random, count: int, width: int = 6) -> list[str]:
    """Distinct lowercase tags of one width; their order permutes file ids."""
    tags: set[str] = set()
    while len(tags) < count:
        tags.add("".join(rng.choices(string.ascii_lowercase, k=width)))
    out = sorted(tags)
    rng.shuffle(out)
    return out


# --- corpus-ore -----------------------------------------------------------------

def corpus_inputs(seed: int, keep: frozenset[str],
                  apps: tuple[str, ...] | None = None) -> Inputs:
    """The bundled corpus verbatim, one directory per application.

    The seed only prefixes each directory with a fixed-width tag, which
    permutes the order in which files are numbered.  The paper's worked
    example, fig_flow, must give exactly one XSS finding, from `echo $a`
    back to the `$_GET` read.  The corpus copy opens with a `<?php` line
    of its own, so the paper's lines 5 and 1 are lines 6 and 2 here.
    """
    rng = random.Random(seed)
    apps = apps or tuple(corpus())
    files: dict[str, str] = {}
    expected: dict[str, dict[str, Expected]] = {}
    for tag, name in zip(_tags(rng, len(apps)), apps):
        for rel, text in corpus()[name].items():
            files[f"{tag}_{name}/{rel}"] = text
            if name == "fig_flow":
                lines = text.splitlines()
                expected[f"{tag}_{name}/{rel}"] = {
                    "xss": Expected(1, lines.index("echo $a;") + 1,
                                    next(i for i, line in enumerate(lines, 1)
                                         if "$_GET" in line)),
                    "sqli": Expected(0),
                }
    return Inputs(files, expected=expected)


# --- chain-ore ------------------------------------------------------------------

# shape -> number of if/else diamonds, or None for the sanitised chain
CHAIN_SHAPES = {"straight": 0, "diamond1": 1, "diamond2": 2, "sanitised": None}


def _chain_source(rng: random.Random, length: int,
                  diamonds: int | None) -> tuple[str, Expected]:
    """One rewrite chain from a request parameter to an echo.

    Each chain variable is assigned twice, by a copy and then by a
    concatenation, so every variable doubles the walks the detector
    enumerates.  A diamond assigns the variable in both arms of an
    if/else instead; both arms reach the sink, so k diamonds give 2^k
    findings.  The sanitised chain passes its last variable through
    htmlspecialchars and has no finding.  Diamonds sit at evenly spaced
    positions that depend on the length alone, since the position changes
    the cost.
    """
    at = {round((j + 1) * length / (diamonds + 1))
          for j in range(diamonds or 0)}
    names = _tags(rng, length + 2, width=5)
    var = [f"${n}" for n in names]
    lit = rng.choice(string.ascii_lowercase)
    key = "".join(rng.choices(string.ascii_lowercase, k=4))
    lines = ["<?php", f"{var[0]} = $_GET['{key}'];"]
    for i in range(1, length + 1):
        if i in at:
            lines += [
                f"if ({var[i - 1]} == '{lit}') {{",
                f"    {var[i]} = {var[i - 1]};",
                "} else {",
                f"    {var[i]} = {var[i - 1]} . '{lit}';",
                "}",
            ]
        else:
            lines += [f"{var[i]} = {var[i - 1]};",
                      f"{var[i]} = {var[i]} . {var[i - 1]};"]
    if diamonds is None:
        lines.append(f"{var[length + 1]} = htmlspecialchars({var[length]});")
        lines.append(f"echo {var[length + 1]};")
        expected = Expected(0)
    else:
        lines.append(f"echo {var[length]};")
        expected = Expected(2 ** len(at), sink_line=len(lines),
                            source_line=2)
    return "\n".join(lines) + "\n", expected


def chain_inputs(seed: int, keep: frozenset[str], length: int) -> Inputs:
    """One file of each shape in CHAIN_SHAPES, every chain of one length."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    expected: dict[str, dict[str, Expected]] = {}
    shapes = CHAIN_SHAPES.items()
    for tag, (shape, diamonds) in zip(_tags(rng, len(shapes)), shapes):
        rel = f"{tag}/{shape}.php"
        files[rel], expected_xss = _chain_source(rng, length, diamonds)
        expected[rel] = {"xss": expected_xss, "sqli": Expected(0)}
    return Inputs(files, expected=expected)


# --- scaled-std -----------------------------------------------------------------

_VARIABLE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_]*")


def _rename_variables(text: str, rng: random.Random,
                      keep: frozenset[str]) -> str:
    """Rename every variable except entry points to a fresh same-length name.

    Renaming is consistent within the file and keeps the case of the
    first letter, so the token stream, and every finding, is unchanged.
    """
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for name in sorted(set(_VARIABLE.findall(text))):
        if name in keep or name.startswith("$_"):
            continue
        first = (string.ascii_uppercase if name[1].isupper()
                 else string.ascii_lowercase)
        while True:
            new = "$" + rng.choice(first) + "".join(
                rng.choices(string.ascii_lowercase, k=len(name) - 2))
            if new not in used and new not in keep:
                break
        used.add(new)
        mapping[name] = new
    return _VARIABLE.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def scaled_inputs(seed: int, keep: frozenset[str], clones: int,
                  apps: tuple[str, ...] | None = None) -> Inputs:
    """The corpus cloned several times into one many-file application.

    Clone 0 is the corpus verbatim; every other clone renames each file's
    variables (never the entry points in keep) and must give the same
    findings as its original.
    """
    rng = random.Random(seed)
    files: dict[str, str] = {}
    originals: dict[str, str] = {}
    first, *others = _tags(rng, clones)
    for name in apps or tuple(corpus()):
        for rel, text in corpus()[name].items():
            origin = f"{first}/{name}/{rel}"
            files[origin] = text
            for tag in others:
                path = f"{tag}/{name}/{rel}"
                files[path] = _rename_variables(text, rng, keep)
                originals[path] = origin
    return Inputs(files, originals=originals)
