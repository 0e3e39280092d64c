"""Command-line interface.

Developer-side commands (encrypt, authorise, decrypt-report, oracle,
bench) handle source code and key material; the analyser-side command
(analyse) takes only the encrypted index and a query file, never keys.

Exit codes: 0 success (including zero findings), 1 usage error, 2 stage
failure, 3 authorization denial.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (
    BUDGET_WARNING,
    analyse,
    authorise,
    decrypt_report,
    dump_report,
    load_query,
    load_report,
    save_query,
    save_report,
)
from .crypto import generate_master_keys, load_keys, save_keys
from .errors import AuthorizationError, CcaError, UsageError
from .dcfg import dump_dcfg
from .frontend import collect_sources, dump_lextokens
from .index import build_index, index_stats, load_index, save_index
from .itl import TASKS, dump_itl, load_rules, load_task_knowledge, task_name
from .oracle import plaintext_analyse
from .pipeline import compile_sources, encrypt_application

log = logging.getLogger(__name__)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _reps(text: str) -> int:
    """argparse type: an int of at least 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return value


def _task_display(task: str) -> str:
    """Display name of a task, from its sink token: XSS_SENS gives XSS."""
    return TASKS[task][0].removesuffix("_SENS")


# `--task` is checked by task_name as it is parsed, so a bad one stops a
# command before any work; argparse lets its UsageError through to main
_TASK_HELP = f"analysis task ({' or '.join(map(_task_display, TASKS))})"


def _mode_from_flags(args) -> str:
    if args.no_encryption:
        return "plain"
    if args.no_ore:
        return "std"
    return "ore"


def _warn_skipped(skipped: list[tuple[str, str]]) -> None:
    for rel, reason in skipped:
        print(f"warning: skipped {rel}: {reason}", file=sys.stderr)


def _default_artifact(src: Path, suffix: str) -> Path:
    name = src.resolve().name or "app"
    return Path(f"{name}{suffix}")


def cmd_encrypt(args) -> int:
    src = Path(args.src)
    mode = _mode_from_flags(args)
    result = encrypt_application(
        src,
        mode=mode,
        rules_path=args.rules,
        task_knowledge_path=args.task_knowledge,
    )
    for fa in result.files:
        if args.dump_lextokens:
            print(f"# lextokens {fa.source.rel}")
            print(dump_lextokens(fa.lex_tokens))
        if args.dump_itl:
            print(f"# itl {fa.source.rel}")
            print(dump_itl(fa.itl_tokens))
        if args.dump_dcfg:
            print(f"# dcfg {fa.source.rel}")
            print(dump_dcfg(fa.dcfg), end="")
    _warn_skipped(result.skipped)
    if not result.files:
        print("warning: no supported source files found; index is empty",
              file=sys.stderr)
    index_path = Path(args.index) if args.index else _default_artifact(src, ".ccaidx")
    keys_path = Path(args.keys) if args.keys else _default_artifact(src, ".ccakeys")
    save_index(index_path, result.index)
    save_keys(keys_path, result.keys)
    print(f"indexed {len(result.files)} file(s), {len(result.index)} entries "
          f"[mode={mode}] -> {index_path}")
    print(f"keys -> {keys_path}")
    return 0


def cmd_authorise(args) -> int:
    ks = load_keys(args.keys)
    query = authorise(ks, args.task, args.policy)
    out = Path(args.out) if args.out else Path(f"{query.task}.ccaq")
    save_query(out, query)
    print(f"authorised task {_task_display(query.task)} "
          f"for {len(query.files)} file(s) -> {out}")
    return 0


def cmd_analyse(args) -> int:
    index = load_index(args.index)
    query = load_query(args.query)
    report = analyse(index, query)
    for warning in report.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    out = Path(args.out) if args.out else Path("report.json")
    save_report(out, report)
    total = sum(len(f["findings"]) for f in report["files"])
    over = {BUDGET_WARNING.format(fq.file_id) for fq in query.files}
    incomplete = not over.isdisjoint(report.get("warnings", ()))
    print(f"analysis {'incomplete' if incomplete else 'complete'}: "
          f"{total} finding(s) -> {out}")
    return 2 if incomplete else 0


def cmd_decrypt_report(args) -> int:
    report = load_report(args.report)
    ks = load_keys(args.keys)
    resolved = decrypt_report(report, ks)
    for warning in resolved.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    task = _task_display(resolved["task"])
    lines = []
    for entry in resolved["files"]:
        for finding in entry["findings"]:
            sink, source = finding["sink"], finding["source"]
            lines.append(
                f"{task}: sink line {sink['line']}, "
                f"source {source['token']} line {source['line']} "
                f"[{entry['file']}]"
            )
    if args.out:
        save_report(Path(args.out), resolved)
        print(f"decrypted report -> {args.out}")
    for line in lines:
        print(line)
    if not lines:
        print(f"{task}: no vulnerable paths")
    return 0


def cmd_oracle(args) -> int:
    rules = load_rules(args.rules)
    tk = load_task_knowledge(args.task_knowledge)
    files, skipped = compile_sources(collect_sources(Path(args.src)), rules, tk)
    _warn_skipped(skipped)
    per_file = [(fa.source.file_id, fa.dcfg) for fa in files]
    names = {fa.source.file_id: fa.source.rel for fa in files}
    print(dump_report(plaintext_analyse(per_file, args.task, names)))
    return 0


def cmd_stats(args) -> int:
    index = load_index(args.index)
    for key, value in index_stats(index).items():
        if isinstance(value, dict):  # the integer widths: count=1 ...
            value = " ".join(f"{name}={size}" for name, size in value.items())
        print(f"{key}: {value}")
    return 0


def cmd_bench(args) -> int:
    rules = load_rules(args.rules)
    tk = load_task_knowledge(args.task_knowledge)
    sources = collect_sources(Path(args.src))
    modes = ("plain", "std", "ore")
    front_total = 0.0
    index_totals = dict.fromkeys(modes, 0.0)
    sizes = {}
    reps = args.reps
    for _ in range(reps):
        t0 = time.perf_counter()
        files, skipped = compile_sources(sources, rules, tk)
        front_total += time.perf_counter() - t0
        artifacts = [(fa.source.file_id, fa.dcfg) for fa in files]
        names = {fa.source.file_id: fa.source.rel for fa in files}
        master = generate_master_keys()
        for mode in modes:
            t0 = time.perf_counter()
            index, _ = build_index(artifacts, master, mode=mode, names=names)
            index_totals[mode] += time.perf_counter() - t0
            sizes[mode] = index_stats(index)["container_bytes"]
    _warn_skipped(skipped)
    if not files:
        raise UsageError(f"no supported source files under {args.src}")
    front = front_total / reps
    per_mode = {mode: total / reps for mode, total in index_totals.items()}

    def fmt(seconds: float) -> str:
        return f"{seconds * 1000:9.2f}"

    print(f"benchmark over {len(files)} file(s), {reps} repetitions "
          f"(average wall time, ms)")
    print(f"{'front end':<12}{fmt(front)}")
    print(f"{'module':<12}" + "".join(f"{m:>10}" for m in modes))
    print(f"{'index':<12}" + "".join(fmt(per_mode[m]) for m in modes))
    print(f"{'pipeline':<12}"
          + "".join(fmt(front + per_mode[m]) for m in modes))
    plain_total = front + per_mode["plain"]
    if plain_total > 0:
        std_oh = (per_mode["std"] - per_mode["plain"]) / plain_total * 100
        ore_oh = (per_mode["ore"] - per_mode["plain"]) / plain_total * 100
        measure = "of front end + plain index build"
        print(f"encryption overhead (DET+RND): {std_oh:.2f}% {measure}")
        print(f"encryption overhead (+ORE): {ore_oh:.2f}% {measure}")
        print("(the paper's 42.7% average is the overhead of the whole "
              "confidential analysis over plain analysis, which this does "
              "not measure)")
    print("index size (bytes): "
          + ", ".join(f"{m}={sizes[m]}" for m in modes))
    return 0


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="cca",
        description="Confidential code analysis: encrypted index "
                    "construction and blind vulnerability detection.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db_options(p) -> None:
        p.add_argument("--rules", default=None,
                       help="translation rules database (YAML)")
        p.add_argument("--task-knowledge", default=None,
                       help="task knowledge database (YAML)")

    p = sub.add_parser("encrypt", help="compile sources into an encrypted index")
    p.add_argument("--src", required=True, help="source directory")
    p.add_argument("--index", default=None, help="output index path")
    p.add_argument("--keys", default=None, help="output key store path")
    p.add_argument("--no-encryption", action="store_true",
                   help="write a plaintext evaluation index")
    p.add_argument("--no-ore", action="store_true",
                   help="encrypt but keep flow fields as plain integers")
    p.add_argument("--dump-lextokens", action="store_true")
    p.add_argument("--dump-itl", action="store_true")
    p.add_argument("--dump-dcfg", action="store_true")
    add_db_options(p)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("authorise", help="issue an analysis query for a task")
    p.add_argument("--keys", required=True, help="key store path")
    p.add_argument("--task", required=True, type=task_name, help=_TASK_HELP)
    p.add_argument("--policy", default=None, help="allow/deny policy file")
    p.add_argument("--out", default=None, help="output query path")
    p.set_defaults(func=cmd_authorise)

    p = sub.add_parser("analyse", help="run a query over an encrypted index")
    p.add_argument("--index", required=True, help="index path")
    p.add_argument("--query", required=True, help="query path")
    p.add_argument("--out", default=None, help="output report path")
    p.set_defaults(func=cmd_analyse)

    p = sub.add_parser("decrypt-report",
                       help="resolve an analysis report with the key store")
    p.add_argument("--report", required=True, help="report path")
    p.add_argument("--keys", required=True, help="key store path")
    p.add_argument("--out", default=None, help="optional resolved report path")
    p.set_defaults(func=cmd_decrypt_report)

    p = sub.add_parser("oracle", help="plaintext reference analysis")
    p.add_argument("--src", required=True, help="source directory")
    p.add_argument("--task", required=True, type=task_name, help=_TASK_HELP)
    add_db_options(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="timing and storage comparison of modes")
    p.add_argument("--src", required=True, help="source directory")
    p.add_argument("--reps", type=_reps, default=5,
                   help="repetitions to average")
    add_db_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="index container statistics")
    p.add_argument("--index", required=True, help="index path")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Report warnings are printed from the report, once.
        handler = logging.StreamHandler()
        handler.addFilter(lambda record: not getattr(record, "in_report", False))
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            handlers=[handler],
        )
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AuthorizationError as exc:
        print(f"authorization denied: {exc}", file=sys.stderr)
        return 3
    except (CcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
