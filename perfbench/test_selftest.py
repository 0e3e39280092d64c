"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Runs the benchmark's own main() in-process on shrunken workloads, so it
takes seconds; the repository's test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import gen
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_APPS = ("fig_flow", "branching", "sqli_multi", "xss_sanitized")
TINY = {
    "corpus-ore": replace(run.WORKLOADS["corpus-ore"],
                          build=partial(gen.corpus_inputs, apps=_APPS)),
    "chain-ore": replace(run.WORKLOADS["chain-ore"],
                         build=partial(gen.chain_inputs, length=3)),
    "scaled-std": replace(run.WORKLOADS["scaled-std"],
                          build=partial(gen.scaled_inputs, clones=2,
                                        apps=_APPS)),
}


@pytest.fixture(autouse=True)
def _work_dir_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, list[str]]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                     "0.01", "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_prints_every_metric_with_its_unit(capsys, workload, trace, section):
    code, result, text = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in text), name


def _drop_one_finding(report: dict) -> dict:
    entry = next(e for e in report["files"] if e["findings"])
    entry["findings"].pop()
    return report


def _add_one_finding(report: dict) -> dict:
    entry = next(e for e in report["files"] if e["findings"])
    report["files"][-1]["findings"].append(copy.deepcopy(entry["findings"][0]))
    return report


@pytest.mark.parametrize("tamper", [_drop_one_finding, _add_one_finding])
def test_checks_fail_on_a_wrong_report(capsys, monkeypatch, tamper):
    import cca.analysis

    save = cca.analysis.save_report

    def save_tampered(path, report):
        if report["task"] == "xss":
            report = tamper(copy.deepcopy(report))
        save(path, report)

    monkeypatch.setattr(cca.analysis, "save_report", save_tampered)
    code, result, _ = _run(capsys, "chain-ore", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_changes_text_but_not_sizes(workload):
    build = partial(run.WORKLOADS[workload].build, keep=frozenset({"$_GET"}))
    one, again, other = build(1), build(1), build(2)
    assert one == again
    assert one.files != other.files
    assert (sorted(len(t) for t in one.files.values())
            == sorted(len(t) for t in other.files.values()))


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-ore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
