"""Span tracing for the traced benchmark run.

For one traced round, `Tracer.start` replaces public functions of cca, in
the namespace their callers look them up in, with wrappers that record
one span per call (name, start, end, parent) plus an optional count taken
from the result, and `Tracer.stop` puts the originals back.  Spans stay
in memory in flat arrays and are written out at the end.  The timed runs
never install the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path


def _size(result) -> int:
    return len(result)


def _first_size(result) -> int:
    return len(result[0])


def _hit(result) -> int:
    return result is not None


# (module, attribute, span name, count taken from the result).  A function
# reached through two namespaces is wrapped in both under one span name.
LAYERS = (
    ("cca.pipeline", "encrypt_application", "pipeline.encrypt", None),
    ("cca.pipeline", "collect_sources", "frontend.collect", _size),
    ("cca.pipeline", "load_rules", "itl.load_db", None),
    ("cca.pipeline", "load_task_knowledge", "itl.load_db", None),
    ("cca.pipeline", "lex", "frontend.lex", _size),
    ("cca.pipeline", "translate", "itl.translate", _first_size),
    ("cca.pipeline", "annotate_control_flow", "dcfg.annotate", None),
    ("cca.dcfg", "annotate_control_flow", "dcfg.annotate", None),
    ("cca.pipeline", "build_dcfg", "dcfg.build", _size),
    ("cca.pipeline", "build_index", "index.build", _first_size),
    ("cca.index", "det_encrypt", "crypto.det_encrypt", None),
    ("cca.index", "rnd_encrypt", "crypto.rnd_encrypt", None),
    ("cca.index", "ore_encrypt", "crypto.ore_encrypt", None),
    ("cca.index", "save_index", "index.save", None),
    ("cca.index", "load_index", "index.load", None),
    ("cca.crypto", "save_keys", "crypto.keys_save", None),
    ("cca.crypto", "load_keys", "crypto.keys_load", None),
    ("cca.analysis", "authorise", "analysis.authorise", None),
    ("cca.analysis", "analyse", "analysis.analyse", None),
    ("cca.index", "EncryptedIndex.lookup", "analysis.probe", _hit),
    ("cca.analysis", "rnd_decrypt", "analysis.rnd_decrypt", None),
    ("cca.analysis", "ore_compare", "analysis.ore_compare", None),
    ("cca.analysis", "find_paths", "analysis.find_paths", _size),
    ("cca.analysis", "remove_invalid_paths", "analysis.remove_invalid", _size),
    ("cca.analysis", "aggregate_paths", "analysis.aggregate", _size),
    ("cca.analysis", "resolve_control_flow", "analysis.resolve", _size),
    ("cca.analysis", "check_vulnerability", "analysis.check", _size),
    ("cca.analysis", "save_report", "analysis.report_save", None),
    ("cca.analysis", "load_report", "analysis.report_load", None),
    ("cca.analysis", "decrypt_report", "analysis.decrypt_report", None),
)

# metric -> (span name, what: "self" seconds, "calls" or result "count")
PER_LAYER = {
    "frontend.collect_s": ("frontend.collect", "self"),
    "frontend.lex_s": ("frontend.lex", "self"),
    "frontend.lex_tokens": ("frontend.lex", "count"),
    "itl.load_db_s": ("itl.load_db", "self"),
    "itl.translate_s": ("itl.translate", "self"),
    "itl.itl_tokens": ("itl.translate", "count"),
    "dcfg.annotate_s": ("dcfg.annotate", "self"),
    "dcfg.annotate_calls": ("dcfg.annotate", "calls"),
    "dcfg.build_s": ("dcfg.build", "self"),
    "dcfg.pairs": ("dcfg.build", "count"),
    "pipeline.encrypt_s": ("pipeline.encrypt", "self"),
    "index.build_s": ("index.build", "self"),
    "index.entries": ("index.build", "count"),
    "index.save_s": ("index.save", "self"),
    "index.load_s": ("index.load", "self"),
    "crypto.det_encrypt_calls": ("crypto.det_encrypt", "calls"),
    "crypto.rnd_encrypt_calls": ("crypto.rnd_encrypt", "calls"),
    "crypto.rnd_encrypt_s": ("crypto.rnd_encrypt", "self"),
    "crypto.ore_encrypt_calls": ("crypto.ore_encrypt", "calls"),
    "crypto.ore_encrypt_s": ("crypto.ore_encrypt", "self"),
    "crypto.keys_save_s": ("crypto.keys_save", "self"),
    "crypto.keys_load_s": ("crypto.keys_load", "self"),
    "analysis.authorise_s": ("analysis.authorise", "self"),
    "analysis.analyse_s": ("analysis.analyse", "self"),
    "analysis.probes": ("analysis.probe", "calls"),
    "analysis.probe_hits": ("analysis.probe", "count"),
    "analysis.rnd_decrypt_calls": ("analysis.rnd_decrypt", "calls"),
    "analysis.rnd_decrypt_s": ("analysis.rnd_decrypt", "self"),
    "analysis.ore_compare_calls": ("analysis.ore_compare", "calls"),
    "analysis.ore_compare_s": ("analysis.ore_compare", "self"),
    "analysis.find_paths_s": ("analysis.find_paths", "self"),
    "analysis.paths_found": ("analysis.find_paths", "count"),
    "analysis.remove_invalid_s": ("analysis.remove_invalid", "self"),
    "analysis.paths_valid": ("analysis.remove_invalid", "count"),
    "analysis.aggregate_s": ("analysis.aggregate", "self"),
    "analysis.groups": ("analysis.aggregate", "count"),
    "analysis.resolve_s": ("analysis.resolve", "self"),
    "analysis.paths_resolved": ("analysis.resolve", "count"),
    "analysis.check_s": ("analysis.check", "self"),
    "analysis.findings": ("analysis.check", "count"),
    "analysis.report_save_s": ("analysis.report_save", "self"),
    "analysis.report_load_s": ("analysis.report_load", "self"),
    "analysis.decrypt_report_s": ("analysis.decrypt_report", "self"),
}


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self) -> None:
        self.names: list[str] = sorted({layer[2] for layer in LAYERS})
        self.name = array("H")
        self.parent = array("q")
        self.start_time = array("d")
        self.end = array("d")
        self.count = array("q")
        self.rounds: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, name_id: int, counter):
        name, parent, start, end, count = (self.name, self.parent,
                                           self.start_time, self.end,
                                           self.count)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            count.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                count[span] = counter(result)
            return result

        return wrapper

    def start(self) -> None:
        """Install the wrappers and open a traced round."""
        self._install()
        self.rounds.append((len(self.start_time), -1))

    def stop(self) -> None:
        """Close the traced round and put the original functions back."""
        first, _ = self.rounds[-1]
        self.rounds[-1] = (first, len(self.start_time))
        self._uninstall()

    def _install(self) -> None:
        ids = {n: i for i, n in enumerate(self.names)}
        for module, attr, span_name, counter in LAYERS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, ids[span_name], counter))

    def _uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def per_round(self) -> list[dict[str, float]]:
        """Every PER_LAYER metric for each traced round.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        n = len(self.start_time)
        duration = [self.end[i] - self.start_time[i] for i in range(n)]
        own = list(duration)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= duration[i]
        out = []
        for first, last in self.rounds:
            totals = {name: {"self": 0.0, "calls": 0, "count": 0}
                      for name in self.names}
            for i in range(first, last):
                slot = totals[self.names[self.name[i]]]
                slot["self"] += own[i]
                slot["calls"] += 1
                slot["count"] += self.count[i]
            out.append({metric: totals[span][what]
                        for metric, (span, what) in PER_LAYER.items()})
        return out

    def write(self, directory: Path) -> None:
        """Write the spans: a JSON header and the raw arrays it describes."""
        arrays = ("name", "parent", "start_time", "end", "count")
        header = {
            "span_names": self.names,
            "spans": len(self.start_time),
            "rounds": self.rounds,
            "arrays": [[a, getattr(self, a).typecode] for a in arrays],
        }
        (directory / "spans.json").write_text(json.dumps(header))
        with open(directory / "spans.bin", "wb") as handle:
            for a in arrays:
                getattr(self, a).tofile(handle)
