"""Replays every seed-1 document of the benchmark workloads through the CLI
and checks each output against the benchmark's recorded sha256 goldens, so a
change to canonical JSON fails here as well as in the benchmark.  Two more
``cli-small`` seeds, which have no goldens, are held to their exit class and
to canonical JSON."""
import importlib
import json
import pathlib

import pytest

import weylseed.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    with open(worker.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    return worker, workloads.WORKLOADS, goldens


@pytest.mark.parametrize("workload", ["chain-pass", "e8-combinatorial", "word-eval", "cli-small"])
def test_workload_outputs_match_goldens(bench, workload):
    worker, workloads, goldens = bench
    failures = []
    for doc in workloads[workload](1):
        outcome, stdout, _, _ = worker.execute(weylseed.cli, doc.argv)
        reason = worker.check(doc, outcome, stdout, goldens)
        if reason is not None:
            failures.append((doc.label, reason))
    assert failures == []


@pytest.mark.parametrize("seed", [2, 3])
def test_unrecorded_cli_small_outputs_are_canonical(bench, seed):
    """``euler-gen`` writes its text itself; on documents without a golden,
    ``worker.check`` compares that text with the canonical dump of its parse."""
    worker, workloads, goldens = bench
    failures, unrecorded = [], set()
    for doc in workloads["cli-small"](seed):
        outcome, stdout, _, _ = worker.execute(weylseed.cli, doc.argv)
        if outcome == 0 and worker.doc_key(doc.argv) not in goldens:
            unrecorded.add(doc.argv[0])
        reason = worker.check(doc, outcome, stdout, goldens)
        if reason is not None:
            failures.append((doc.label, reason))
    assert failures == []
    assert {"euler-gen", "phi-eval"} <= unrecorded
