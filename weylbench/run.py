"""weylseed benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 weylbench/run.py                       # every workload, untraced then traced
    python3 weylbench/run.py --workload chain-pass --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh
``worker.py`` process with one client and no threads: the next document
starts when the previous one returns.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from a separate
traced run.  Every output is checked against the recorded goldens; the last
line of stdout is one JSON object with the result.  A record of each run,
with the machine and load, is written under ``weylbench/results``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 9
DEADLINE_S = 170
TAIL_PERCENTILES = (99.99, 99.9, 99.5, 99, 95, 90, 75, 50)

sys.path.insert(0, HERE)
import refclock  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def machine() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "weylseed")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class Children:
    """Runs worker processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.log: list[dict] = []

    def run(self, mode: str, seconds: float = 0, spans_path: str | None = None) -> dict:
        """Run one worker; return its result with ``setup_s`` and ``setup_wall_s`` added."""
        argv = [
            sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--seconds", str(seconds),
        ]
        if spans_path:
            argv += ["--spans", spans_path]
        env = dict(os.environ, PYTHONHASHSEED="0")
        load_before = os.getloadavg()[0]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode} worker passed the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        lines = out.strip().splitlines()
        if not lines or lines[0] != "ready" or proc.returncode != 0:
            raise BenchError(f"{self.workload} {mode} worker exited {proc.returncode}")
        self.log.append({
            "mode": mode, "wall_s": time.perf_counter() - start,
            "load1_before": load_before, "load1_after": os.getloadavg()[0],
        })
        result = json.loads(lines[-1])
        result["setup_wall_s"] = result["ready"] - start
        if "probes" in result:
            clock = refclock.RefClock(result["probes"])
            result["setup_s"] = clock.reference(start, result["ready"])
        return result


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten documents beyond it.

    With too few documents for any percentile (the fixed workloads), the
    latency of the slowest document.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return ordered[int(rank) - 1], f"p{p:g}"
    return ordered[-1], "slowest document"


def failures_of(result: dict) -> tuple[list, list]:
    """Failed documents, each once, and those of them that are not known defects.

    A document that fails in any pass of the run counts once: its outcome
    does not depend on the pass, so the counts depend only on the seed.
    """
    first: dict[int, list] = {}
    for failure in result["failures"]:
        first.setdefault(failure[0], failure)
    failed = [first[index] for index in sorted(first)]
    return failed, [f for f in failed if not f[2].startswith("known defect")]


def measure(children: Children) -> tuple[dict, dict]:
    setups = [children.run("setup") for _ in range(SETUP_SAMPLES)]
    result = children.run("run", seconds=children.seconds)
    setups.append(result)
    # a document's latency is its median over the run's passes
    latencies = [statistics.median(d) for d in zip(*result["latencies"])]
    tail_s, tail_label = tail(latencies)
    failed, unexpected = failures_of(result)
    documents = result["documents"]
    values = {
        "run_s": statistics.median(result["passes"]),
        "doc_p50_ms": statistics.median(latencies) * 1e3,
        "doc_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_ratio": 1 - len(failed) / documents,
    }
    detail = {
        "passes": len(result["passes"]),
        "documents": documents,
        "executions": result["executions"],
        "tail_percentile": tail_label,
        "setup_samples": [r["setup_s"] for r in setups],
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups),
        "wall_run_s": statistics.median(result["wall_passes"]),
        "slowdown": result["slowdown"],
        "failed": len(failed),
        "failures": failed,
        "unexpected": unexpected,
        "latencies": result["latencies"],
    }
    return values, detail


def measure_traced(children: Children, stem: str) -> tuple[dict, dict]:
    plain = children.run("run", seconds=0)
    runs = [
        children.run("trace", spans_path=os.path.join(RESULTS, f"{stem}-spans{i}.json"))
        for i in (1, 2)
    ]
    metrics = [spans.layer_metrics(r["aggregate"], r["counts"]) for r in runs]
    first, second = (spans.exact_counts(m) for m in metrics)
    drift = sorted(k for k in first if first[k] != second.get(k))
    values = {k: (metrics[0][k] + metrics[1][k]) / 2 for k in metrics[0]}
    values.update(first)
    traced_s = statistics.mean(r["passes"][0] for r in runs)
    values["trace.overhead_s"] = traced_s - plain["passes"][0]
    failed, unexpected = failures_of(runs[0])
    detail = {
        "documents": runs[0]["documents"],
        "failed": len(failed),
        "failures": failed,
        "unexpected": unexpected + failures_of(runs[1])[1] + failures_of(plain)[1],
        "count_drift": drift,
        "untraced_run_s": plain["passes"][0],
        "traced_run_s": [r["passes"][0] for r in runs],
        "traced_wall_run_s": [r["wall_passes"][0] for r in runs],
    }
    return values, detail


def run_workload(bench: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    os.makedirs(RESULTS, exist_ok=True)
    children = Children(workload, seed, seconds)
    stem = f"{workload}-seed{seed}"
    declared = bench["per_layer"] if traced else bench["end_to_end"]
    if traced:
        values, detail = measure_traced(children, stem)
    else:
        values, detail = measure(children)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = not detail["unexpected"] and not detail.get("count_drift")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine(), "children": children.log, "correct": correct,
        "metrics": metrics, "all_values": values, "detail": detail,
    }
    with open(os.path.join(RESULTS, f"{stem}-trace{int(traced)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return record


def report(record: dict) -> None:
    detail = record["detail"]
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} seed {record['seed']}: {kind}, "
          f"{detail['documents']} documents")
    for name, metric in record["metrics"].items():
        note = ""
        if name in ("doc_p50_ms", "doc_tail_ms"):
            label = "p50" if name == "doc_p50_ms" else detail["tail_percentile"]
            note = (f"  ({label} of {detail['documents']} documents,"
                    f" each the median of {detail['passes']} passes)")
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    if not record["trace"]:
        print(f"  times in reference seconds; wall: run_s {detail['wall_run_s']:.6g} s,"
              f" setup_s {detail['setup_wall_s']:.6g} s; machine slowdown"
              f" {detail['slowdown']:.3f}")
    print(f"  fail_ratio {detail['failed']}/{detail['documents']}"
          f" = {detail['failed'] / detail['documents']:.4f}")
    for index, label, reason in detail["failures"]:
        if reason.startswith("known defect"):
            print(f"  {reason}: {record['workload']} document {index} [{label}]")
    if record["trace"]:
        print("  waiting: none; the package waits on no queue, lock or thread")
        for key in detail["count_drift"]:
            print(f"  COUNT DRIFT between traced runs: {key}")
    for index, label, reason in detail["unexpected"]:
        print(f"  MISMATCH {record['workload']} document {index} [{label}]: {reason}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="weylseed benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "weylseed", "cli.py")):
        print(f"weylbench: no weylseed sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    records = []
    try:
        for traced in modes:
            for name in names:
                records.append(run_workload(bench, name, args.seed, args.seconds, traced))
    except BenchError as exc:
        print(f"weylbench: {exc}", file=sys.stderr)
        return 1
    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["detail"]["documents"] for r in records),
        "failed": sum(r["detail"]["failed"] for r in records),
        "metrics": {
            (k if single else f"{r['workload']}/{k}"): v
            for r in records for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
