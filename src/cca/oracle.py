"""Plaintext reference analyses used to validate the encrypted pipeline.

Two oracles with different trust stories:

* `plaintext_analyse` runs the analysis module's detection, `find_paths`
  and then the final check, directly over dependency pairs, with the
  plaintext lines and (depth, order, type) triples where an ore run uses
  line ranks and scope tags.  Agreement with a decrypted encrypted-mode
  report shows the cryptographic layer is transparent.  The paper's steps 2-4 stay in
  the analysis module as the reference; the tests hold `find_paths` to
  them.

* `enumerate_findings` is a from-scratch rewrite of the whole detection
  semantics in one function, sharing no code with the analysis module.
  Agreement on small programs guards against a shared bug in the primary
  implementation and its plaintext twin.
"""

from __future__ import annotations

from .analysis import (
    BUDGET_WARNING,
    FileQuery,
    PathNode,
    Reader,
    detect,
    node_to_dict,
)
from .dcfg import DCFG
from .itl import TASKS, task_name


class DcfgReader(Reader):
    """Feeds plaintext dependency pairs, grouped by left token
    (`DCFG.by_left`), to the shared detection."""

    def _read(self, ref: str, count: int | None) -> list[PathNode]:
        return [
            PathNode(pair.right.token, pair.right.line, pair.right.flow)
            for pair in self.index.get(ref, [])
        ]


def plaintext_analyse(per_file: list[tuple[int, DCFG]], task: str,
                      file_names: dict[int, str] | None = None) -> dict:
    """Run the analyser's detection over plaintext pairs, per file.

    Returns a report shaped like a decrypted encrypted-mode report so the
    two can be compared field for field.
    """
    task = task_name(task)
    sens_name, san_name = TASKS[task]
    report: dict = {"task": task, "mode": "oracle", "files": []}
    for file_id, dcfg in sorted(per_file, key=lambda item: item[0]):
        fq = FileQuery(file_id, sens=sens_name, input_id="INPUT",
                       san_id=san_name)
        findings, complete = detect(DcfgReader(dcfg.by_left()), fq)
        if not complete:
            report.setdefault("warnings", []).append(
                BUDGET_WARNING.format(file_id))
        name = file_names.get(file_id) if file_names else file_id
        entry = {"file": name if name is not None else file_id, "findings": []}
        for nodes in findings:
            entry["findings"].append({
                "sink": node_to_dict(nodes[0]),
                "source": node_to_dict(nodes[-1]),
                "path": [node_to_dict(n) for n in nodes],
            })
        report["files"].append(entry)
    return report


def enumerate_findings(dcfg: DCFG, task: str) -> set[tuple]:
    """Exhaustively enumerate vulnerable flows in one file, independently.

    Returns the reported paths as tuples of (token, line, depth, order,
    cf_type) nodes, sink first.  Implements the complete detection
    semantics without calling into the analysis module.
    """
    task = task_name(task)
    sens_name, san_name = TASKS[task]

    adjacency: dict[str, list[tuple]] = {}
    for pair in dcfg:
        node = (pair.right.token, pair.right.line, pair.right.depth,
                pair.right.order, pair.right.cf_type)
        adjacency.setdefault(pair.left, []).append(node)

    # every maximal walk outward from a sink occurrence
    complete: list[list[tuple]] = []
    stack: list[tuple[list[tuple], frozenset]] = []
    for head in reversed(adjacency.get(sens_name, [])):
        sink_node = (sens_name,) + head[1:]
        stack.append(([sink_node, head], frozenset([sens_name])))
    while stack:
        trail, used = stack.pop()
        here = trail[-1][0]
        if here in used or here not in adjacency:
            complete.append(trail)
            continue
        used = used | {here}
        for node in reversed(adjacency[here]):
            stack.append((trail + [node], used))

    # causality filter within the sink's own scope
    plausible = []
    for trail in complete:
        sink = trail[0]
        bad = False
        for node in trail[1:]:
            if node[2:5] == sink[2:5] and node[1] > sink[1]:
                bad = True
                break
        if not bad:
            plausible.append(trail)

    # per sink statement, keep one walk per branch-scope combination
    by_sink: dict[tuple, list[list[tuple]]] = {}
    for trail in plausible:
        by_sink.setdefault((trail[0][0], trail[0][1]), []).append(trail)

    chosen: list[list[tuple]] = []
    for sink_key in sorted(by_sink, key=lambda item: item[1]):
        sink_line = sink_key[1]
        variants: dict[frozenset, list[list[tuple]]] = {}
        for trail in by_sink[sink_key]:
            scope_mix = frozenset(node[2:5] for node in trail[1:])
            variants.setdefault(scope_mix, []).append(trail)
        for rewrites in variants.values():
            kept: list[list[tuple]] = []
            for trail in rewrites:
                loses = False
                wins: list[int] = []
                for i, old in enumerate(kept):
                    split = None
                    for j in range(min(len(old), len(trail))):
                        if old[j] != trail[j]:
                            split = j
                            break
                    if split is None:
                        if len(old) == len(trail):
                            loses = True
                            break
                        split = min(len(old), len(trail))
                    o_line = old[split][1] if split < len(old) else None
                    t_line = trail[split][1] if split < len(trail) else None
                    if o_line is not None and t_line is not None \
                            and o_line == t_line:
                        continue
                    o_ok = o_line is not None and o_line < sink_line
                    t_ok = t_line is not None and t_line < sink_line
                    if t_ok and (not o_ok or t_line > o_line):
                        wins.append(i)
                    else:
                        loses = True
                        break
                if loses:
                    continue
                kept = [old for i, old in enumerate(kept) if i not in wins]
                kept.append(trail)
            chosen.extend(kept)

    out: set[tuple] = set()
    for trail in chosen:
        if trail[-1][0] != "INPUT":
            continue
        if any(node[0] == san_name for node in trail):
            continue
        out.add(tuple(trail))
    return out
