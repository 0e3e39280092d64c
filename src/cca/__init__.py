"""Confidential code analysis over encrypted inverted indexes.

The package compiles a PHP subset into an encrypted index of data and
control flows, and detects XSS and SQL injection flows over that index
without access to the source code.  See README.md for the protocol
walkthrough and docs/formats.md for the file formats.
"""

from .analysis import (
    Query,
    analyse,
    authorise,
    decrypt_report,
    load_query,
    load_report,
    save_query,
    save_report,
)
from .crypto import (
    MasterKeys,
    det_encrypt,
    generate_master_keys,
    load_keys,
    ore_compare,
    ore_encrypt,
    rnd_decrypt,
    rnd_encrypt,
    save_keys,
)
from .dcfg import DCFG, DCFGPair, annotate_control_flow, build_dcfg
from .errors import (
    AuthorizationError,
    CcaError,
    ConfigError,
    FormatError,
    IntegrityError,
    KeyMismatchError,
    LexError,
    StructureError,
    TranslationError,
    UsageError,
)
from .frontend import LexToken, collect_sources, lex
from .index import EncryptedIndex, build_index, load_index, save_index
from .itl import ITLToken, load_rules, load_task_knowledge, translate
from .oracle import enumerate_findings, plaintext_analyse
from .pipeline import encrypt_application, process_file

__version__ = "1.0.0"

__all__ = [
    "AuthorizationError",
    "CcaError",
    "ConfigError",
    "DCFG",
    "DCFGPair",
    "EncryptedIndex",
    "FormatError",
    "ITLToken",
    "IntegrityError",
    "KeyMismatchError",
    "LexError",
    "LexToken",
    "MasterKeys",
    "Query",
    "StructureError",
    "TranslationError",
    "UsageError",
    "analyse",
    "annotate_control_flow",
    "authorise",
    "build_dcfg",
    "build_index",
    "collect_sources",
    "decrypt_report",
    "det_encrypt",
    "encrypt_application",
    "enumerate_findings",
    "generate_master_keys",
    "lex",
    "load_index",
    "load_keys",
    "load_query",
    "load_report",
    "load_rules",
    "load_task_knowledge",
    "ore_compare",
    "ore_encrypt",
    "plaintext_analyse",
    "process_file",
    "rnd_decrypt",
    "rnd_encrypt",
    "save_index",
    "save_keys",
    "save_query",
    "save_report",
    "translate",
    "__version__",
]
