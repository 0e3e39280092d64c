"""Whole-protocol benchmark of cca: encrypt, authorise, analyse, decrypt-report.

    python3 perfbench/run.py --workload corpus-ore --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository.  One process runs one workload as
a closed loop with one client: protocol rounds run back to back, each
doing in-process what the `cca` subcommands do, through the same public
functions and the same files on disk.  Every round runs both tasks and is
checked against references computed apart from the analysis module.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics (medians over the timed rounds); with --trace 1 it
holds the per-layer metrics of traced rounds, which alternate with
untraced ones and whose spans are written to .perfbench/<workload>/.
See perfbench/README.md.
"""

import argparse
import gc
import json
import logging
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
TASKS = ("xss", "sqli")
SINKS = {"xss": "XSS_SENS", "sqli": "SQLi_SENS"}

MIN_ROUNDS = 3  # timed rounds of each kind, however short --seconds is


@dataclass(frozen=True)
class Workload:
    mode: str
    build: Callable[..., gen.Inputs]   # (seed, keep) -> Inputs


WORKLOADS = {
    "corpus-ore": Workload("ore", gen.corpus_inputs),
    "chain-ore": Workload("ore", partial(gen.chain_inputs, length=7)),
    "scaled-std": Workload("std", partial(gen.scaled_inputs, clones=4)),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "encrypt_s": "s",
    "analyse_s": "s",
    "decrypt_report_s": "s",
    "protocol_s": "s",
    "index_bytes": "B",
    "keys_bytes": "B",
    "report_bytes": "B",
    "peak_rss_mb": "MB",
}


class Files:
    """Where one workload's protocol artefacts live on disk."""

    def __init__(self, work: Path) -> None:
        self.src = work / "src"
        self.index = work / "app.ccaidx"
        self.keys = work / "app.ccakeys"
        self.query = {task: work / f"{task}.ccaq" for task in TASKS}
        self.report = {task: work / f"{task}-report.yaml" for task in TASKS}


def protocol_round(cca, files: Files, mode: str):
    """One closed-loop round; returns step timings and decrypted reports.

    Calls go through module attributes so traced rounds see the wrappers.
    """
    pipeline, index, crypto, analysis = (cca.pipeline, cca.index, cca.crypto,
                                         cca.analysis)
    clock = time.perf_counter
    t0 = clock()
    result = pipeline.encrypt_application(files.src, mode=mode)
    index.save_index(files.index, result.index)
    crypto.save_keys(files.keys, result.keys)
    t1 = clock()
    for task in TASKS:
        query = analysis.authorise(crypto.load_keys(files.keys), task)
        analysis.save_query(files.query[task], query)
    t2 = clock()
    for task in TASKS:
        report = analysis.analyse(index.load_index(files.index),
                                  analysis.load_query(files.query[task]))
        analysis.save_report(files.report[task], report)
    t3 = clock()
    resolved = {}
    for task in TASKS:
        report = analysis.load_report(files.report[task])
        resolved[task] = analysis.decrypt_report(report,
                                                 crypto.load_keys(files.keys))
    t4 = clock()
    times = {"encrypt_s": t1 - t0, "analyse_s": t3 - t2,
             "decrypt_report_s": t4 - t3, "protocol_s": t4 - t0}
    return times, resolved


# --- correctness --------------------------------------------------------------

def _path_key(nodes) -> tuple:
    return tuple((n["token"], n["line"], n["depth"], n["order"], n["type"])
                 for n in nodes)


def findings_of(resolved: dict) -> dict[str, dict[str, list]]:
    """task -> file -> sorted full node paths of a decrypted report."""
    return {
        task: {entry["file"]: sorted(_path_key(f["path"])
                                     for f in entry["findings"])
               for entry in report["files"]}
        for task, report in resolved.items()
    }


@dataclass
class References:
    """What every round must reproduce, computed without cca.analysis."""

    oracle: dict[str, dict[str, list]]   # task -> file -> sorted paths
    token_names: frozenset[str]          # every plaintext ITL token name


def make_references(cca, files: Files, rules, tk) -> References:
    oracle = {task: {} for task in TASKS}
    names: set[str] = set()
    for source in cca.frontend.collect_sources(files.src):
        dcfg = cca.pipeline.process_file(source, rules, tk).dcfg
        for pair in dcfg:
            names.update((pair.left, pair.right.token))
        for task in TASKS:
            oracle[task][source.rel] = sorted(
                cca.oracle.enumerate_findings(dcfg, task))
    return References(oracle, frozenset(names))


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def check_round(inputs: gen.Inputs, refs: References, resolved: dict,
                files: Files, mode: str) -> list[str]:
    """Every way the round's decrypted findings or reports are wrong."""
    problems = []
    found = findings_of(resolved)
    for task in TASKS:
        if found[task] != refs.oracle[task]:
            wrong = sorted(f for f in set(found[task]) | set(refs.oracle[task])
                           if found[task].get(f) != refs.oracle[task].get(f))
            problems.append(f"{task}: findings differ from "
                            f"oracle.enumerate_findings in {wrong[:3]}")
    for rel, by_task in inputs.expected.items():
        for task, want in by_task.items():
            paths = found[task].get(rel, [])
            ends = {(p[0][0], p[0][1], p[-1][0], p[-1][1]) for p in paths}
            if len(paths) != want.count or (want.count and ends != {
                    (SINKS[task], want.sink_line, "INPUT", want.source_line)}):
                problems.append(f"{task}: {rel} has {len(paths)} finding(s) "
                                f"{sorted(ends)}, expected {want}")
    for clone, origin in inputs.originals.items():
        for task in TASKS:
            if found[task].get(clone) != found[task].get(origin):
                problems.append(f"{task}: clone {clone} differs from {origin}")
    if mode != "plain":
        for task in TASKS:
            text = files.report[task].read_text(encoding="utf-8")
            leaked = set(_WORD.findall(text)) & refs.token_names
            if leaked:
                problems.append(f"{task}: analyser report holds plaintext "
                                f"token names {sorted(leaked)[:3]}")
    return problems


# --- the run ------------------------------------------------------------------

def _sizes(files: Files) -> dict[str, int]:
    return {
        "index_bytes": files.index.stat().st_size,
        "keys_bytes": files.keys.stat().st_size,
        "report_bytes": sum(p.stat().st_size for p in files.report.values()),
    }


class Loop:
    """Runs rounds, checks each, and tallies what was attempted and failed."""

    def __init__(self, cca, files: Files, mode: str, inputs: gen.Inputs,
                 refs: References) -> None:
        self.cca, self.files, self.mode = cca, files, mode
        self.inputs, self.refs = inputs, refs
        self.attempted = 0
        self.failed = 0

    def round(self):
        """One checked round: (timings, sizes), or None if it failed."""
        gc.collect()
        self.attempted += 1
        try:
            times, resolved = protocol_round(self.cca, self.files, self.mode)
            problems = check_round(self.inputs, self.refs, resolved,
                                   self.files, self.mode)
        except Exception:  # a failed round is counted; the loop keeps going
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return times, _sizes(self.files)

    def phase(self, seconds: float, kinds: int = 1, before=None,
              after=None) -> list[list]:
        """Rounds back to back for `seconds` and MIN_ROUNDS of each kind.

        Round n is of kind n % kinds; `before` and `after` get the kind.
        Returns the samples of each kind.
        """
        samples: list[list] = [[] for _ in range(kinds)]
        started = time.perf_counter()
        n = 0
        while (min(map(len, samples)) < MIN_ROUNDS
               or time.perf_counter() - started < seconds):
            kind = n % kinds
            n += 1
            if before:
                before(kind)
            sample = self.round()
            if after:
                after(kind)
            if sample is not None:
                samples[kind].append(sample)
            elif self.failed >= MIN_ROUNDS and not any(samples):
                break  # nothing works; stop rather than spin
        return samples


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _ours(module: str) -> bool:
    return module in ("cca", "corpus") or module.startswith("cca.")


def set_up(workload: Workload, seed: int):
    """One set-up: import cca and the corpus, load the databases, generate.

    cca is imported afresh each time, as a new process would; packages
    it imports from elsewhere stay loaded after the first time.  A
    repeat imports a throwaway copy and then restores the modules the
    loop already uses.  Returns (seconds, inputs, rules, task knowledge).
    """
    saved = {m: sys.modules.pop(m) for m in list(sys.modules) if _ours(m)}
    try:
        started = time.perf_counter()
        import cca
        gen.corpus()
        rules = cca.itl.load_rules()
        tk = cca.itl.load_task_knowledge()
        inputs = workload.build(seed, tk.inputs)
        elapsed = time.perf_counter() - started
    finally:
        if saved:
            for module in [m for m in sys.modules if _ours(m)]:
                del sys.modules[module]
            sys.modules.update(saved)
    return elapsed, inputs, rules, tk


def run(workload: Workload, name: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """Set up, loop and measure one workload; returns the result object."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = Files(work)
    elapsed, inputs, rules, tk = set_up(workload, seed)
    setups = [elapsed]
    # Writing the tree stays out of setup_s: rewriting the same 148 files
    # took anywhere from 22 to 157 ms on one ext4 disk, which says nothing
    # about cca.
    gen.write_tree(files.src, inputs.files)
    import cca

    refs = make_references(cca, files, rules, tk)
    loop = Loop(cca, files, workload.mode, inputs, refs)
    loop.round()  # warm-up, checked but not timed
    if not trace:
        def set_up_again(kind: int) -> None:
            # spreads the set-up samples over the whole run
            setups.append(set_up(workload, seed)[0])

        (samples,) = loop.phase(seconds, before=set_up_again)
        metrics = {"setup_s": statistics.median(setups)}
        if samples:
            for key in ("encrypt_s", "analyse_s", "decrypt_report_s",
                        "protocol_s"):
                metrics[key] = _median([s[0] for s in samples], key)
            for key in ("index_bytes", "keys_bytes", "report_bytes"):
                metrics[key] = _median([s[1] for s in samples], key)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END_UNITS
    else:
        from spans import PER_LAYER, Tracer
        tracer = Tracer()

        def start(kind: int) -> None:
            if kind:
                tracer.start()

        def stop(kind: int) -> None:
            if kind:
                tracer.stop()

        # untraced and traced rounds alternate, so both see the machine alike
        plain, traced = loop.phase(seconds, kinds=2, before=start, after=stop)
        tracer.write(work)
        metrics = {}
        if plain and traced:
            rounds = tracer.per_round()
            for key in PER_LAYER:
                metrics[key] = statistics.median(r[key] for r in rounds)
            # useful to attempted: paths that survive detection per path walked
            metrics["analysis.resolved_ratio"] = (
                metrics["analysis.paths_resolved"]
                / max(metrics["analysis.paths_found"], 1))
            metrics["trace.overhead_s"] = (
                _median([s[0] for s in traced], "protocol_s")
                - _median([s[0] for s in plain], "protocol_s"))
        units = {key: ("s" if key.endswith("_s") else "count")
                 for key in PER_LAYER}
        units["analysis.resolved_ratio"] = "ratio"
        units["trace.overhead_s"] = "s"
    correct = loop.failed == 0 and len(metrics) == len(units)
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units if key in metrics},
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in (ROOT / "src" / "cca" / "__init__.py",
                           ROOT / "tests" / "corpus.py") if not p.is_file()]
    if missing:
        print(f"error: not a cca checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # chain-ore has no SQL sink, so every sqli analysis logs that no probe
    # answered; the report carries the same warning, so keep stderr quiet
    logging.getLogger("cca").setLevel(logging.ERROR)
    result = run(workloads[args.workload], args.workload, args.seed,
                 args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:<30} {metric['value']:>16.6f} {metric['unit']}")
    print(f"rounds attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
