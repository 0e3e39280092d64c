"""End-to-end encryption pipeline: source tree in, index and keys out."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .crypto import KeyStore, generate_master_keys
from .dcfg import DCFG, ExtendedITLToken, annotate_control_flow, build_dcfg
from .errors import LexError, StructureError, TranslationError
from .frontend import LexToken, SourceFile, collect_sources, lex
from .index import EncryptedIndex, build_index
from .itl import (
    ITLToken,
    RuleSet,
    TaskKnowledge,
    load_rules,
    load_task_knowledge,
    translate,
)

log = logging.getLogger(__name__)


@dataclass
class FileArtifacts:
    """Everything the pipeline derives from one source file."""

    source: SourceFile
    lex_tokens: list[LexToken]
    itl_tokens: list[ITLToken]
    extended: list[ExtendedITLToken]
    dcfg: DCFG


@dataclass
class EncryptResult:
    index: EncryptedIndex
    keys: KeyStore
    files: list[FileArtifacts]
    skipped: list[tuple[str, str]] = field(default_factory=list)


def process_file(
    source: SourceFile,
    rules: RuleSet,
    tk: TaskKnowledge,
) -> FileArtifacts:
    """Lex, translate and extract dependency pairs for one file."""
    lex_tokens = lex(source.text, source.rel)
    itl_tokens, ctx = translate(lex_tokens, rules, tk, source.rel)
    extended = annotate_control_flow(itl_tokens, source.rel)
    dcfg = build_dcfg(extended, ctx)
    return FileArtifacts(source, lex_tokens, itl_tokens, extended, dcfg)


def compile_sources(
    sources: list[SourceFile],
    rules: RuleSet,
    tk: TaskKnowledge,
) -> tuple[list[FileArtifacts], list[tuple[str, str]]]:
    """Run process_file over every source, skipping unsupported files.

    A file the lexer, translator or structure checks reject is skipped and
    listed as (path, reason); the others are compiled in order.
    """
    files: list[FileArtifacts] = []
    skipped: list[tuple[str, str]] = []
    for source in sources:
        try:
            files.append(process_file(source, rules, tk))
        except (LexError, TranslationError, StructureError) as exc:
            log.debug("skipping %s: %s", source.rel, exc)
            skipped.append((source.rel, str(exc)))
    return files, skipped


def encrypt_application(
    root: Path | str,
    mode: str = "ore",
    rules_path: Path | str | None = None,
    task_knowledge_path: Path | str | None = None,
) -> EncryptResult:
    """Compile every supported source file under root into one index.

    Unsupported files are skipped (see compile_sources); the remaining
    files still produce a complete index.
    """
    rules = load_rules(rules_path)
    tk = load_task_knowledge(task_knowledge_path)
    files, skipped = compile_sources(collect_sources(root), rules, tk)
    master = generate_master_keys()
    per_file = [(fa.source.file_id, fa.dcfg) for fa in files]
    names = {fa.source.file_id: fa.source.rel for fa in files}
    index, counts = build_index(per_file, master, mode=mode, names=names)
    keys = KeyStore(master=master, mode=mode, files=names, counts=counts)
    return EncryptResult(index, keys, files, skipped)
