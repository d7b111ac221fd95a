#!/usr/bin/env python3
"""End-to-end benchmark of the relmore static-timing flow.

Full run: 3-5 fresh processes per workload, interleaved across workloads:
    python3 benchmark/run.py [--seed S] [--smoke] [--trace] --out DIR
One workload, time-boxed to T seconds of measurement over its processes:
    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
Compare two full runs against the metric bounds:
    python3 benchmark/run.py --compare A/results.json B/results.json
Check the pooling, percentile and compare logic on planted inputs:
    python3 benchmark/run.py --self-test

Every metric prints as `workload metric value unit`. The one-workload form
ends with one JSON line holding correct, attempted, failed and metrics.
The benchmark builds its own Release binary (benchmark/CMakeLists.txt)
into build/benchmark-release; traces land in its traces/ directory.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build" / "benchmark-release"
BINARY = BUILD / "relmore_bench"
TRACES = BUILD / "traces"

PROCESS_TIMEOUT_S = 150
# A one-workload run ends within this many seconds after the build.
SINGLE_RUN_DEADLINE_S = 170

# Fresh processes per workload, ops per process in a full run, and ops
# in a smoke run. Each process gives one setup_s sample. whatif gets
# fewer: its set-up takes about 3 s and its every-100th-op oracle check
# about 0.2 s. The latency metrics keep half the ops (KEPT_WINDOWS), so
# 240 signoff ops leave 12 beyond the p90. signoff takes half of a full
# run's two minutes; the other workloads keep 20 or more beyond the p90.
WORKLOADS = {
    "signoff": (5, 48, 2),
    "reanalyze_small": (5, 80, 10),
    "reanalyze_large": (5, 240, 20),
    "whatif": (3, 500, 101),
}
TRACED_PROCESSES = 3  # per workload in a traced run

# Share of a run's windows (0.2 s of op time each, scaled to the reference
# speed) that its latency metrics pool: the faster ones. The scale takes
# out the host's clock; a window in which a neighbour slowed the core
# beyond what the calibration pass sees lands in the slower half.
KEPT_WINDOWS = 0.5

# name, unit, better, bound: the share of the parent's median by which the
# metric may get worse. BENCHMARK.json carries this table. setup_s has one
# sample per process, so it gets the largest bound. Even scaled to the
# reference speed, the spread of ten runs on a shared 4-vCPU host reached
# 8% on a p50 and 19% on a p90 (README, "Observed spread").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)
# Printed and compared, but not in BENCHMARK.json: fail_ratio may not
# increase at all, and it is 0 on a healthy run, so BENCHMARK.json carries
# it as the `failed` count.
UNGATED = (
    ("fail_ratio", "ratio", "lower", 0.0),
)
# Printed for reference, never compared: set-up and the p50 over every op
# in host time, before scaling to the reference speed.
HOST = (
    ("host_setup_s", "s", "lower"),
    ("host_latency_p50_ms", "ms", "lower"),
)

# name, unit, better. No bound: layer metrics explain a change, they do not gate it.
PER_LAYER = (
    ("sta.design.read_ms", "ms", "lower"),
    ("sta.design.resolve_ms", "ms", "lower"),
    ("circuit.netlist.read_us_per_net", "us", "lower"),
    ("circuit.flat_tree.snapshot_us_per_net", "us", "lower"),
    ("sta.corpus.analyze_ms", "ms", "lower"),
    ("eed.analyze_us_per_net", "us", "lower"),
    ("sta.corpus.parallel_gain", "x", "higher"),
    ("sta.corpus.batched_nets", "count", "higher"),
    ("sta.corpus.scalar_nets", "count", "lower"),
    ("sta.corpus.fallback_nets", "count", "lower"),
    ("sta.corpus.faulted_nets", "count", "lower"),
    ("sta.timing_graph.build_ms", "ms", "lower"),
    ("sta.timing_graph.propagate_ms", "ms", "lower"),
    ("sta.timing_graph.forward_retimed_per_op", "count", "lower"),
    ("sta.timing_graph.backward_retimed_per_op", "count", "lower"),
    ("sta.timing_graph.frontier_cutoffs_per_op", "count", "higher"),
    ("sta.report.worst_paths_ms", "ms", "lower"),
    ("sta.report.format_ms", "ms", "lower"),
    ("sta.timer.load_s", "s", "lower"),
    ("sta.timer.analyze_s", "s", "lower"),
    ("sta.timer.record_us", "us", "lower"),
    ("sta.timer.commit_us", "us", "lower"),
    ("sta.timer.query_us", "us", "lower"),
    ("sta.timer.incremental_ratio", "ratio", "higher"),
    ("sta.timer.cache_hit_ratio", "ratio", "higher"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + UNGATED + HOST + PER_LAYER}


# --- building and running ----------------------------------------------------

def build():
    """Configures when needed and builds relmore_bench. False on failure."""
    def configure():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    def compile_binary():
        cmd = ["cmake", "--build", str(BUILD), "-j", "4", "--target", "relmore_bench"]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    configured = False
    if not (BUILD / "CMakeCache.txt").exists():
        if not configure():
            return False
        configured = True
    if compile_binary():
        return True
    # A cache left by an earlier failed configure: configure once more.
    return not configured and configure() and compile_binary()


def run_process(workload, seed, ops=0, seconds=0.0, trace_path=None, timeout=PROCESS_TIMEOUT_S):
    """One relmore_bench process; its JSON line, or a record of the failure.
    A process still running after `timeout` seconds is killed and waited for."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if ops:
        cmd += ["--ops", str(ops)]
    if seconds:
        cmd += ["--seconds", f"{seconds:.3f}"]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    if trace_path is not None:
        result["trace"] = str(trace_path)
    return result


# --- statistics ----------------------------------------------------------------

def percentile(sorted_values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    if not sorted_values:
        return None
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def reference_windows(proc):
    """One process's windows: the latencies of each window's untraced ops,
    times the window's scale to the reference speed."""
    windows, start = [], 0
    for count, scale in zip(proc["window_ops"], proc["window_scale"]):
        count = int(count)
        if count:
            windows.append([x * scale for x in proc["latency_ms"][start:start + count]])
        start += count
    return windows


def pool(procs):
    """Pools the processes of one workload into its end-to-end metrics.

    Latencies are taken at the reference speed, over the faster KEPT_WINDOWS
    share of all the windows of the processes. A process that crashed counts
    one failed op; so does every process whose result_digest differs from
    the most common one."""
    ok = [p for p in procs if "error" not in p]
    errors = [p["error"] for p in procs if "error" in p]
    errors += [e for p in ok for e in p["errors"]]
    attempted = sum(p["attempted"] for p in ok) + len(procs) - len(ok)
    failed = sum(p["failed"] for p in ok) + len(procs) - len(ok)
    digests = [p["result_digest"] for p in ok]
    digest = max(set(digests), key=digests.count) if digests else None
    mismatched = sum(d != digest for d in digests)
    if mismatched:
        failed += mismatched
        errors.append(f"result_digest differs across processes: {sorted(set(digests))}")
    windows = sorted((w for p in ok for w in reference_windows(p)), key=statistics.fmean)
    kept = windows[:math.ceil(len(windows) * KEPT_WINDOWS)]
    latency = sorted(x for w in kept for x in w)
    p90 = percentile(latency, 90)
    metrics = {}
    if ok and latency:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] * p["setup_scale"] for p in ok),
            "latency_p50_ms": percentile(latency, 50),
            "latency_p90_ms": p90,
            "ops_per_s": len(latency) / (sum(latency) / 1e3),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
            "host_setup_s": statistics.median(p["setup_s"] for p in ok),
            "host_latency_p50_ms": percentile(sorted(x for p in ok for x in p["latency_ms"]), 50),
        }
    metrics["fail_ratio"] = failed / max(attempted, 1)
    return {
        "metrics": metrics,
        "samples": len(latency),
        "samples_beyond_p90": sum(x > p90 for x in latency) if latency else 0,
        "processes": len(procs),
        "attempted": attempted,
        "failed": failed,
        "checks": sum(p["checks"] for p in ok),
        "result_digest": digest if not mismatched else "mismatch",
        "correct": failed == 0 and len(ok) == len(procs),
        "errors": errors[:10],
    }


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def layer_metrics(traces, procs):
    """Per-layer metrics from the traces of one workload's processes.

    Spans wrap public library calls; a layer's self time is its span's
    duration minus the time its direct children cover."""
    spans = defaultdict(list)   # name -> [event]
    child_us = defaultdict(float)  # (trace, span id) -> time covered by children
    for t, events in enumerate(traces):
        for e in events:
            e["trace"] = t
            spans[e["name"]].append(e)
            if e["args"]["parent"] >= 0:
                child_us[(t, e["args"]["parent"])] += e["dur"]

    def covered(e):
        return child_us[(e["trace"], e["args"]["id"])]

    def median_us(name):
        return statistics.median(e["dur"] for e in spans[name])

    def per_net_us(name):
        return statistics.median(e["dur"] / e["args"]["nets"] for e in spans[name])

    def arg_median(name, key):
        return statistics.median(e["args"][key] for e in spans[name])

    def arg_mean(name, key):
        return statistics.fmean(e["args"][key] for e in spans[name])

    # Differences between layers come from one probe phase at a time, so
    # both sides see the same process and the same moment on the box.
    probe_ids = {(e["trace"], e["args"]["id"]) for e in spans["probe"]}
    probed = defaultdict(lambda: defaultdict(list))  # trace -> name -> [dur], in order
    for name, events in spans.items():
        for e in events:
            if (e["trace"], e["args"]["parent"]) in probe_ids:
                probed[e["trace"]][name].append(e["dur"])

    def per_probe_us(difference):
        return statistics.median(difference(p) for p in probed.values())

    def resolve_us(p):
        read = p["sta.design.read"][0]
        return read - p["circuit.netlist.read"][0] - p["circuit.flat_tree.snapshot"][0]

    def propagate_us(p):
        pairs = zip(p["sta.timing_graph.analyze"], p["sta.corpus.analyze"])
        return statistics.median(analyze - corpus for analyze, corpus in pairs)

    ops = spans["op"]
    traced = sorted(x for p in procs for x in p.get("traced_latency_ms", []))
    untraced = sorted(x for p in procs for x in p.get("latency_ms", []))
    hits = sum(e["args"]["hits"] for e in spans["sta.timer.cache"])
    lookups = hits + sum(e["args"]["misses"] for e in spans["sta.timer.cache"])
    corpus_us = median_us("sta.corpus.analyze")
    metrics = {
        "sta.design.read_ms": median_us("sta.design.read") / 1e3,
        "sta.design.resolve_ms": per_probe_us(resolve_us) / 1e3,
        "circuit.netlist.read_us_per_net": per_net_us("circuit.netlist.read"),
        "circuit.flat_tree.snapshot_us_per_net": per_net_us("circuit.flat_tree.snapshot"),
        "sta.corpus.analyze_ms": corpus_us / 1e3,
        "eed.analyze_us_per_net": per_net_us("eed.analyze"),
        "sta.corpus.parallel_gain": median_us("eed.analyze") / corpus_us,
        "sta.corpus.batched_nets": arg_median("sta.corpus.analyze", "batched"),
        "sta.corpus.scalar_nets": arg_median("sta.corpus.analyze", "scalar"),
        "sta.corpus.fallback_nets": arg_median("sta.corpus.analyze", "fallback"),
        "sta.corpus.faulted_nets": arg_median("sta.corpus.analyze", "faulted"),
        "sta.timing_graph.build_ms": median_us("sta.timing_graph.build") / 1e3,
        "sta.timing_graph.propagate_ms": per_probe_us(propagate_us) / 1e3,
        "sta.timing_graph.forward_retimed_per_op": arg_mean("sta.timer.commit", "forward_retimed"),
        "sta.timing_graph.backward_retimed_per_op": arg_mean("sta.timer.commit", "backward_retimed"),
        "sta.timing_graph.frontier_cutoffs_per_op": arg_mean("sta.timer.commit", "frontier_cutoffs"),
        "sta.report.worst_paths_ms": median_us("sta.report.worst_paths") / 1e3,
        "sta.report.format_ms": median_us("sta.report.format") / 1e3,
        "sta.timer.load_s": median_us("sta.timer.load") / 1e6,
        "sta.timer.analyze_s": median_us("sta.timer.analyze") / 1e6,
        "sta.timer.record_us": median_us("sta.timer.record"),
        "sta.timer.commit_us": median_us("sta.timer.commit"),
        "sta.timer.query_us": median_us("sta.timer.query"),
        "sta.timer.incremental_ratio": arg_mean("sta.timer.commit", "incremental"),
        "sta.timer.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "trace.coverage_pct": 100.0 * sum(covered(e) for e in ops) / sum(e["dur"] for e in ops),
        "trace.overhead_pct": 100.0 * (percentile(traced, 50) / percentile(untraced, 50) - 1.0),
    }
    # Self time per traced op of each span under an op (the op's own self
    # time is what no layer span covers).
    op_ids = {(e["trace"], e["args"]["id"]) for e in ops}
    self_ms = defaultdict(float)
    for name, events in spans.items():
        for e in events:
            key = (e["trace"], e["args"]["id"])
            if key in op_ids or (e["trace"], e["args"]["parent"]) in op_ids:
                self_ms[name] += (e["dur"] - covered(e)) / 1e3 / len(ops)
    return metrics, dict(sorted(self_ms.items()))


# --- reporting -------------------------------------------------------------------

def print_metrics(workload, metrics):
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {UNITS[name]}")


def summarize(procs, traced):
    """Pooled end-to-end metrics, plus per-layer metrics for a traced run."""
    summary = pool(procs)
    if traced and summary["correct"]:
        try:
            traces = [load_trace(p["trace"]) for p in procs]
            summary["layers"], summary["self_ms_per_op"] = layer_metrics(traces, procs)
        except (OSError, ValueError, KeyError, ZeroDivisionError, TypeError) as e:
            summary["correct"] = False
            summary["errors"].append(f"trace incomplete: {e!r}")
    return summary


def print_summary(workload, summary, traced):
    if traced:
        print_metrics(workload, summary.get("layers", {}))
        for name, value in summary.get("self_ms_per_op", {}).items():
            print(f"{workload} self.{name} {value:.6g} ms")
        print_metrics(workload, {"fail_ratio": summary["metrics"]["fail_ratio"]})
    else:
        print_metrics(workload, summary["metrics"])
    print(f"{workload} latency_samples {summary['samples']} count")
    print(f"{workload} samples_beyond_p90 {summary['samples_beyond_p90']} count")
    print(f"{workload} result_digest {summary['result_digest']}")
    for error in summary["errors"]:
        print(f"{workload} error {error}", file=sys.stderr)


def process_count(workload, smoke=False, traced=False):
    """Processes a run starts for `workload`. A traced run reports no
    setup_s, and each of its processes ends with a probe phase, so it
    starts fewer."""
    return 1 if smoke else TRACED_PROCESSES if traced else WORKLOADS[workload][0]


def full_run(args):
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    TRACES.mkdir(parents=True, exist_ok=True)
    processes = {w: process_count(w, args.smoke, args.trace) for w in WORKLOADS}
    # Each workload's processes spread evenly over the run, interleaved with
    # the others', so drift on the machine hits every workload alike.
    schedule = sorted(((i + 0.5) / k, w, i) for w, k in processes.items() for i in range(k))
    procs = defaultdict(list)
    for _, workload, i in schedule:
        _, ops, smoke_ops = WORKLOADS[workload]
        trace_path = TRACES / f"{workload}-s{args.seed}-{i}.json" if args.trace else None
        procs[workload].append(
            run_process(workload, args.seed, ops=smoke_ops if args.smoke else ops,
                        trace_path=trace_path))
    results = {
        "seed": args.seed,
        "mode": ("smoke" if args.smoke else "full") + ("+trace" if args.trace else ""),
        "processes_per_workload": processes,
        "units": UNITS,
        "workloads": {},
    }
    correct = True
    for workload in WORKLOADS:
        summary = summarize(procs[workload], args.trace)
        print_summary(workload, summary, args.trace)
        correct = correct and summary["correct"]
        results["workloads"][workload] = summary
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out / 'results.json'}; correct={correct}")
    return 0 if correct else 1


def single_run(args):
    """The BENCHMARK.json form: one workload, its processes sharing the time."""
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    TRACES.mkdir(parents=True, exist_ok=True)
    traced = args.trace == 1
    processes = process_count(args.workload, traced=traced)
    deadline = time.monotonic() + SINGLE_RUN_DEADLINE_S
    procs = []
    for i in range(processes):
        trace_path = TRACES / f"{args.workload}-s{args.seed}-{i}.json" if traced else None
        procs.append(run_process(args.workload, args.seed, seconds=args.seconds / processes,
                                 trace_path=trace_path,
                                 timeout=max(deadline - time.monotonic(), 1.0)))
    summary = summarize(procs, traced)
    print_summary(args.workload, summary, traced)
    wanted = PER_LAYER if traced else END_TO_END
    values = summary["layers"] if traced and summary["correct"] else summary["metrics"]
    correct = summary["correct"] and all(name in values for name, *_ in wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in wanted if name in values},
    }))
    return 0 if correct else 1


# --- compare -------------------------------------------------------------------------

def judge(base, new, better, bound):
    """Verdict of `new` against `base` for one metric."""
    if base is None or new is None:
        return "missing", None
    if bound == 0.0:  # may not increase at all
        return ("worse" if new > base else "ok"), None
    ratio = new / base if base else math.inf
    change = ratio - 1.0 if better == "lower" else 1.0 - ratio  # > 0: got worse
    if change > bound:
        return "worse", ratio
    if change < -bound:
        return "better", ratio
    return "ok", ratio


def compare(a, b):
    """Rows (workload, metric, a, b, ratio, verdict); ok when none is worse or missing."""
    rows = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa = a["workloads"].get(workload, {})
        wb = b["workloads"].get(workload, {})
        for name, _, better, bound in END_TO_END + UNGATED:
            va = wa.get("metrics", {}).get(name)
            vb = wb.get("metrics", {}).get(name)
            verdict, ratio = judge(va, vb, better, bound)
            rows.append((workload, name, va, vb, ratio, verdict))
        da, db = wa.get("result_digest"), wb.get("result_digest")
        same = da is not None and da == db and da != "mismatch"
        rows.append((workload, "result_digest", da, db, None, "same" if same else "differs"))
    ok = all(r[5] in ("ok", "better", "same") for r in rows)
    return rows, ok


def print_compare(rows, ok):
    def fmt(v):
        return "-" if v is None else (v if isinstance(v, str) else f"{v:.6g}")
    print(f"{'workload':16} {'metric':16} {'A':>16} {'B':>16} {'B/A':>8}  verdict")
    for workload, name, va, vb, ratio, verdict in rows:
        print(f"{workload:16} {name:16} {fmt(va):>16} {fmt(vb):>16} {fmt(ratio):>8}  {verdict}")
    print("compare: " + ("every metric within its bound" if ok else "REGRESSION or mismatch"))


# --- self-test -----------------------------------------------------------------------

def self_test():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # Percentiles.
    ten = [float(x) for x in range(1, 11)]
    check(percentile(ten, 50) == 5.5, "p50 of 1..10 is 5.5")
    check(abs(percentile(ten, 90) - 9.1) < 1e-12, "p90 of 1..10 is 9.1")
    check(percentile([3.0], 90) == 3.0, "percentile of one sample")
    check(percentile([], 50) is None, "percentile of nothing")

    # Pooling.
    def proc(lat, setup, rss, digest, windows=None, scales=None, setup_scale=1.0):
        windows = windows or [len(lat)]
        return {"latency_ms": lat, "setup_s": setup, "setup_scale": setup_scale,
                "window_ops": windows, "window_scale": scales or [1.0] * len(windows),
                "peak_rss_mb": rss, "result_digest": digest, "attempted": len(lat), "failed": 0,
                "checks": 1, "errors": []}

    pooled = pool([proc([1.0, 2.0, 3.0], 1.0, 10.0, "aa"), proc([4.0, 5.0], 3.0, 30.0, "aa"),
                   proc([6.0], 2.0, 20.0, "aa")])
    m = pooled["metrics"]
    check(m["latency_p50_ms"] == 3.0, "pooled p50 spans the faster half of all windows")
    check(m["host_latency_p50_ms"] == 3.5, "host p50 spans every op")
    check(m["setup_s"] == 2.0 and m["peak_rss_mb"] == 20.0, "setup and rss are medians over processes")
    check(abs(m["ops_per_s"] - 5 / 0.015) < 1e-9, "ops_per_s = kept ops / their op time")
    check(m["fail_ratio"] == 0.0 and pooled["correct"], "clean pool is correct")
    check(pooled["samples"] == 5 and pooled["samples_beyond_p90"] == 1, "sample counts")
    scaled = pool([proc([4.0, 8.0], 2.0, 1.0, "aa", windows=[1, 1], scales=[0.5, 0.25],
                        setup_scale=0.5)])["metrics"]
    check(scaled["latency_p50_ms"] == 2.0 and scaled["host_latency_p50_ms"] == 6.0,
          "latency is scaled per window to the reference speed")
    check(scaled["setup_s"] == 1.0 and scaled["host_setup_s"] == 2.0, "set-up is scaled")
    slow = pool([proc([1.0, 1.0, 9.0, 9.0], 1.0, 1.0, "aa", windows=[2, 2])])["metrics"]
    check(slow["latency_p90_ms"] == 1.0, "the slower half of the windows is left out")
    bad = pool([proc([1.0], 1.0, 1.0, "aa"), proc([1.0], 1.0, 1.0, "bb"), proc([1.0], 1.0, 1.0, "aa")])
    check(not bad["correct"] and bad["failed"] == 1 and bad["result_digest"] == "mismatch",
          "a digest mismatch fails the pool")
    crashed = pool([proc([1.0], 1.0, 1.0, "aa"), {"error": "exit 1"}])
    check(not crashed["correct"] and crashed["metrics"]["fail_ratio"] == 0.5,
          "a crashed process counts as a failed op")

    # Compare: within bound, over bound, direction, missing, fail_ratio.
    def results(**metrics):
        base = {"setup_s": 1.0, "latency_p50_ms": 10.0, "latency_p90_ms": 20.0,
                "ops_per_s": 100.0, "peak_rss_mb": 50.0, "fail_ratio": 0.0}
        base.update(metrics)
        base = {k: v for k, v in base.items() if v is not None}
        return {"workloads": {"w": {"metrics": base, "result_digest": "aa"}}}

    def verdict(rows, name):
        return next(r[5] for r in rows if r[1] == name)

    bound = {name: b for name, *_, b in END_TO_END}
    lat, ops = bound["latency_p50_ms"], bound["ops_per_s"]
    rows, ok = compare(results(), results(latency_p50_ms=10.0 * (1 + lat / 2)))
    check(ok and verdict(rows, "latency_p50_ms") == "ok", "slower by half the bound is within it")
    rows, ok = compare(results(), results(latency_p50_ms=10.0 * (1 + 2 * lat)))
    check(not ok and verdict(rows, "latency_p50_ms") == "worse", "slower by twice the bound is over it")
    rows, ok = compare(results(), results(latency_p50_ms=10.0 * (1 - 2 * lat)))
    check(ok and verdict(rows, "latency_p50_ms") == "better", "lower latency is better")
    rows, ok = compare(results(), results(ops_per_s=100.0 * (1 - ops / 2)))
    check(ok and verdict(rows, "ops_per_s") == "ok", "throughput down by half the bound is within it")
    rows, ok = compare(results(), results(ops_per_s=100.0 * (1 - 2 * ops)))
    check(not ok and verdict(rows, "ops_per_s") == "worse", "lower throughput is worse")
    rows, ok = compare(results(), results(ops_per_s=100.0 * (1 + 2 * ops)))
    check(ok and verdict(rows, "ops_per_s") == "better", "higher throughput is better")
    check(bound["setup_s"] == max(bound.values()), "setup_s has the largest bound")
    rows, ok = compare(results(), results(peak_rss_mb=None))
    check(not ok and verdict(rows, "peak_rss_mb") == "missing", "a missing metric fails")
    rows, ok = compare(results(), results(fail_ratio=0.001))
    check(not ok and verdict(rows, "fail_ratio") == "worse", "any fail_ratio increase fails")
    b = results()
    b["workloads"]["w"]["result_digest"] = "bb"
    rows, ok = compare(results(), b)
    check(not ok and verdict(rows, "result_digest") == "differs", "a digest change fails")

    # Layer metrics from a planted trace: op of 100 us, children cover 96.
    def span(i, name, parent, dur, **args):
        return {"name": name, "ph": "X", "ts": 0.0, "dur": dur,
                "args": {"id": i, "parent": parent, **args}}
    events = [
        span(0, "op", -1, 100.0),
        span(1, "sta.timer.record", 0, 6.0),
        span(2, "sta.timer.commit", 0, 80.0, incremental=1, forward_retimed=3,
             backward_retimed=2, frontier_cutoffs=1),
        span(3, "sta.timer.query", 0, 10.0),
        span(4, "probe", -1, 5000.0),
        span(5, "sta.design.read", 4, 1000.0),
        span(6, "circuit.netlist.read", 4, 400.0, nets=100),
        span(7, "circuit.flat_tree.snapshot", 4, 100.0, nets=100),
        span(8, "eed.analyze", 4, 300.0, nets=100),
        span(9, "sta.corpus.analyze", 4, 150.0, batched=60, scalar=40, fallback=0, faulted=0),
        span(10, "sta.timing_graph.build", 4, 50.0),
        span(11, "sta.timing_graph.analyze", 4, 250.0),
        span(12, "sta.report.worst_paths", -1, 20.0),
        span(13, "sta.report.format", -1, 30.0),
        span(14, "sta.timer.load", -1, 2e6),
        span(15, "sta.timer.analyze", -1, 5e5),
        span(16, "sta.timer.cache", -1, 1.0, hits=3, misses=1),
    ]
    layers, self_ms = layer_metrics([events], [{"latency_ms": [1.0, 1.0], "traced_latency_ms": [1.1]}])
    check(abs(layers["trace.coverage_pct"] - 96.0) < 1e-9, "coverage = children / op")
    check(abs(layers["trace.overhead_pct"] - 10.0) < 1e-9, "overhead = traced / untraced p50")
    check(abs(layers["sta.design.resolve_ms"] - 0.5) < 1e-12, "resolve = read - probes")
    check(layers["circuit.netlist.read_us_per_net"] == 4.0, "per-net probe time")
    check(layers["sta.corpus.parallel_gain"] == 2.0, "parallel gain = eed serial / corpus")
    check(abs(layers["sta.timing_graph.propagate_ms"] - 0.1) < 1e-12, "propagate = analyze - corpus")
    check(layers["sta.timer.cache_hit_ratio"] == 0.75, "cache hit ratio")
    check(layers["sta.timing_graph.forward_retimed_per_op"] == 3.0, "retimed per op")
    check(abs(self_ms["op"] - 0.004) < 1e-12 and "probe" not in self_ms, "self time per op")
    check(set(layers) == {name for name, *_ in PER_LAYER}, "every per-layer metric is computed")

    # BENCHMARK.json, when present, carries this file's metric table.
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        check([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
              == [tuple(m) for m in END_TO_END], "BENCHMARK.json end_to_end matches END_TO_END")
        check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER),
              "BENCHMARK.json per_layer matches PER_LAYER")
        check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
              "BENCHMARK.json workloads match WORKLOADS")

    for failure in failures:
        print(f"self-test FAILED: {failure}")
    print(f"self-test: {'ok' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 2 is held out for confirming claims)")
    parser.add_argument("--out", help="directory for results.json (full run)")
    parser.add_argument("--smoke", action="store_true", help="1 process per workload, few ops")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--workload", help="run one workload, time-boxed by --seconds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds of a one-workload run, shared by its processes")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two results.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            rows, ok = compare(json.load(fa), json.load(fb))
        print_compare(rows, ok)
        return 0 if ok else 1
    if args.workload:
        return single_run(args)
    if not args.out:
        parser.error("give --out DIR, --workload W, --compare A B or --self-test")
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
