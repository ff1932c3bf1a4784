"""One measured benchmark process: set-up, then a closed loop over documents.

Run by ``run.py`` in a fresh interpreter for each measurement, so peak RSS and
set-up time do not carry over between workloads:

    python3 weylbench/worker.py --workload NAME --seed N --mode MODE \
        [--seconds S] [--spans FILE]

MODE is ``setup`` (set up, then exit), ``run`` (whole passes over the
documents until the next one would end after S seconds) or ``trace`` (one
pass with per-layer spans).  The worker prints ``ready`` once set-up is done
and one JSON result line at the end.  The machine probe of ``refclock`` runs
from the start in every mode, and times are reported in reference seconds.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import refclock
import spans
from workloads import KNOWN_DEFECTS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens.json")
SELF_CHECKS = {
    "mu-i": lambda out: [out["report"]["final_labels_ok"], out["report"]["chains_reversed"]]
    if "report" in out else [],
    "minor-check": lambda out: [c["ok"] for c in out["checks"]],
    "identities": lambda out: [c["ok"] for c in out["identities"]],
}


def canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def doc_key(argv) -> str:
    return hashlib.sha256(json.dumps(list(argv)).encode()).hexdigest()[:16]


def import_package():
    """Import ``weylseed`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "weylseed", "cli.py")):
        raise SystemExit(f"weylbench: no weylseed sources under {SRC}")
    sys.path.insert(0, SRC)
    import weylseed.cli

    if not os.path.abspath(weylseed.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"weylbench: weylseed imported from {weylseed.cli.__file__}")
    return weylseed.cli


def execute(cli, argv):
    """Run one document; return (exit code or exception name, stdout bytes, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.main(list(argv))
    except SystemExit as exc:
        outcome = exc.code
    except Exception as exc:  # a traceback: record its type, never stop the loop
        outcome = type(exc).__name__
    end = time.perf_counter()
    return outcome, out.getvalue().encode(), start, end


def check(doc, outcome, stdout: bytes, goldens) -> str | None:
    """Return why the document failed, or None when it passed.

    Documents recorded in the goldens must reproduce their stdout byte for
    byte; others (other seeds) must land in their exit class and print
    canonical JSON.  Self-check fields of the output must hold either way.
    """
    if doc.expect in KNOWN_DEFECTS:
        exception = KNOWN_DEFECTS[doc.expect]
        if outcome == exception:
            return f"known defect {doc.expect}"
        if outcome in (0, 2, 3):
            return None  # the defect is fixed; a clean exit is acceptable
        return f"outcome {outcome!r}, expected {exception} or a clean exit"
    wanted = 0 if doc.expect == "ok" else 2
    if outcome != wanted:
        return f"outcome {outcome!r}, expected exit {wanted}"
    golden = goldens.get(doc_key(doc.argv))
    digest = hashlib.sha256(stdout).hexdigest()
    if golden is not None and golden != [outcome, digest]:
        return f"stdout sha256 {digest[:12]} differs from golden {golden[1][:12]}"
    if outcome != 0:
        return None
    out = json.loads(stdout)
    if golden is None and stdout != canonical(out):
        return "stdout is not canonical JSON"
    if doc.argv[0] in SELF_CHECKS:
        flags = SELF_CHECKS[doc.argv[0]](out)
        if not all(flags):
            return f"self-check field false: {flags}"
    return None


def run_pass(cli, docs, goldens, tracer=None):
    """One pass; returns each document's (start, end) stamps and the failures."""
    stamps, failures = [], []
    for index, doc in enumerate(docs):
        if tracer is not None:
            tracer.doc = index
        outcome, stdout, start, end = execute(cli, doc.argv)
        stamps.append((start, end))
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(stdout)
        reason = check(doc, outcome, stdout, goldens)
        if reason is not None:
            failures.append([index, doc.label, reason])
    return stamps, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    clock = refclock.RefClock()
    clock.start()
    cli = import_package()
    docs = WORKLOADS[args.workload](args.seed)
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    ready = time.perf_counter()
    print("ready", flush=True)
    result = {"ready": ready}
    if args.mode == "setup":
        time.sleep(refclock.PERIOD_S)  # let the probe after ``ready`` land
        clock.stop()
        result["probes"] = clock.samples(until=ready)
        print(json.dumps(result), flush=True)
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)

    stamps, failures, walls = [], [], []
    start = time.perf_counter()
    while True:
        pass_stamps, fail = run_pass(cli, docs, goldens, tracer)
        stamps.append(pass_stamps)
        walls.append(pass_stamps[-1][1] - pass_stamps[0][0])
        failures.extend(fail)
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed + statistics.median(walls) > args.seconds:
            break
    clock.stop()

    latencies = [[clock.reference(a, b) for a, b in row] for row in stamps]
    wall = [[clock.wall(a, b) for a, b in row] for row in stamps]
    result.update({
        "probes": clock.samples(until=ready),
        "slowdown": clock.slowdown(),
        "passes": [sum(row) for row in latencies],
        "wall_passes": [sum(row) for row in wall],
        "latencies": latencies,
        "executions": sum(map(len, stamps)),
        "documents": len(docs),
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        result["aggregate"] = tracer.aggregate(clock)
        result["counts"] = dict(tracer.counts)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
