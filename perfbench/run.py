#!/usr/bin/env python3
"""Cold single-pass benchmark of the Sunflow replay engine and planner.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload fb512|intra150 \
        --seed N --seconds S --trace 0|1 [--out result.json]

Builds perfbench/sfbench from source on first use, then measures fresh
sfbench processes ("passes"): every pass generates its inputs from the
seed, runs the workload's timed phase once and checks its outputs, so
nothing a previous replay warmed is ever measured. One untimed set-up-only
process warms the binary's pages first. Passes repeat for about --seconds
(at least one runs); latency percentiles are taken over the operations of
all passes, every other figure is the median over passes.

--trace 0 prints the end-to-end metrics; set-up is also timed in extra
set-up-only processes until SETUP_SAMPLES samples exist. --trace 1 runs
each pass twice, untraced then traced, and prints the per-layer metrics
of the traced passes plus the tracing overhead; the traced schedule must
equal the untraced one (CCT digest). The last stdout line is the result
object; the line before it carries the run's provenance (git state, build
type, host_nproc, pool width, seed, cold flag). perfbench/README.md
defines every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
SETUP_SAMPLES = 9
WORKLOADS = ("fb512", "intra150")
# A layer's derived self time may dip below zero, or the traced planner
# clock exceed its enclosing span, by at most this much (clock-read skew).
PARTITION_SLACK_S = 1e-6

END_TO_END = {
    "setup_s": "s",
    "coflows_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p98_us": "us",
    "peak_rss_mb": "MB",
    "cct_mean_s": "s",
}
PER_LAYER = {
    "core.plan_s": "s",
    "core.order_s": "s",
    "core.order_calls": "count",
    "engine.execute_self_s": "s",
    "engine.driver_self_s": "s",
    "engine.sink_s": "s",
    "engine.spans": "count",
    "engine.event_pops": "count",
    "trace.read_s": "s",
    "trace.read_calls": "count",
    "trace.generate_s": "s",
    "trace.write_s": "s",
    "core.reservations": "count",
    "core.memo_hit_ratio": "ratio",
    "core.schedule_one_s": "s",
    "core.flows": "count",
    "trace.bounds_s": "s",
    "runtime.pool_busy_frac": "ratio",
    "runtime.parallel_replan_ratio": "ratio",
    "trace_overhead_frac": "ratio",
}
# The replay partition: these self times tile the timed phase.
REPLAY_LAYERS = ("engine.driver_self_s", "trace.read_s", "core.order_s",
                 "core.plan_s", "engine.execute_self_s", "engine.sink_s")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configures (once) and builds sfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Sunflow sources under {ROOT / 'src'}")
    out = build_dir() / f"perfbench-{BUILD_TYPE}"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "--target", "sfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build failed: {' '.join(cmd)}")
    return out / "sfbench"


def provenance():
    """Git SHA and dirty flag when the checkout is a git work tree, plus a
    digest of the sources either way (a plain checkout has no git state)."""
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if sha is not None:
        dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    h = hashlib.sha256()
    for d in (ROOT / "src", HERE):
        for p in sorted(d.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".in", ".txt"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return {"git_sha": sha or "unknown", "git_dirty": dirty,
            "source_sha256": h.hexdigest()[:16]}


def run_pass(binary, workload, seed, work, traced=False, setup_only=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--work", str(work), "--traced", "1" if traced else "0",
           "--setup_only", "1" if setup_only else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        fail(f"pass failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(xs, pct):
    """Linear interpolation between order statistics of sorted xs, the
    definition sfbench uses per pass (stats::Percentile)."""
    h = (len(xs) - 1) * pct / 100
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def partition_errors(traced):
    """Replay layers must tile the timed phase: spans nested as the layers
    are, no negative self time, the planner's own clock inside its
    ExecuteSpan, and the sum equal to the run time within clock-read
    slack."""
    errs = []
    if traced["workload"] == "intra150":
        if traced["runtime.pool_busy_frac"] > 1 + PARTITION_SLACK_S:
            errs.append("pool busy time exceeds run time x width")
        return errs
    for layer in REPLAY_LAYERS:
        if traced[layer] < -PARTITION_SLACK_S:
            errs.append(f"{layer} is negative ({traced[layer]:.3g} s)")
    if traced["misnested_spans"]:
        errs.append(f"{traced['misnested_spans']:.0f} spans outside their "
                    "layer's parent")
    if traced["nesting_excess_s"] > PARTITION_SLACK_S:
        errs.append("planner clock exceeds its ExecuteSpan by "
                    f"{traced['nesting_excess_s']:.3g} s")
    total = sum(traced[layer] for layer in REPLAY_LAYERS)
    if abs(total - traced["run_s"]) > PARTITION_SLACK_S:
        errs.append(f"layers sum to {total:.9f} s, run took "
                    f"{traced['run_s']:.9f} s")
    return errs


def layer_metrics(untraced, traced):
    m = {name: traced.get(name, 0.0) for name in PER_LAYER}
    replans = traced.get("engine.spans", 0)
    m["runtime.parallel_replan_ratio"] = (
        traced["plan.parallel_replans"] / replans if replans else 0.0)
    m["trace_overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result (provenance, "
                    "metrics, every pass) as JSON to this file")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    work = build_dir() / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)

    # Warm-up (not measured): loads the binary and its libraries, so the
    # first measured pass does not pay for a cold page cache.
    run_pass(binary, args.workload, args.seed, work, setup_only=True)

    # Measured passes, each a fresh process; --trace 1 pairs an untraced
    # pass with a traced one on the same inputs.
    pairs = []
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        untraced = run_pass(binary, args.workload, args.seed, work)
        traced = None
        if args.trace:
            traced = run_pass(binary, args.workload, args.seed, work,
                              traced=True)
        pairs.append((untraced, traced))
        # Start another pass only if it would end within half a pass of
        # the window, so the pass count is round(seconds / pass time).
        took = time.monotonic() - start
        if time.monotonic() - begin + took / 2 > args.seconds:
            break
    untraced = [u for u, _ in pairs]
    setups = [u["setup_s"] for u in untraced]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(binary, args.workload, args.seed, work,
                               setup_only=True)["setup_s"])

    # Output checks: per-coflow verdicts from every pass, the same schedule
    # in every pass (the CCT digest), and the traced partition.
    attempted = sum(p["checked"] for p in untraced)
    failed = sum(p["failed"] for p in untraced)
    problems = []
    digests = {p["cct_digest"] for p in untraced}
    for _, t in pairs:
        if t is None:
            continue
        attempted += t["checked"]
        failed += t["failed"]
        digests.add(t["cct_digest"])
        problems += partition_errors(t)
    if len(digests) != 1:
        problems.append(f"CCT digests differ across passes: {sorted(digests)}")
        failed += 1
    if any(p["checked"] != p["coflows"] for p in untraced):
        problems.append("a pass completed another number of coflows than "
                        "its input holds")
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    correct = failed == 0 and not problems

    first = untraced[0]
    meta = {
        **provenance(),
        "build_type": first["build_type"],
        "host_nproc": first["host_nproc"],
        "pool_width": first["pool_width"],
        "workload": args.workload,
        "seed": args.seed,
        "cold": True,
        "passes": len(pairs),
        "ops": sum(len(p["latency_us"]) for p in untraced),
        "traced": bool(args.trace),
        "cct_digest": first["cct_digest"],
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if args.trace:
        layers = [layer_metrics(u, t) for u, t in pairs]
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {name: statistics.median(p[name] for p in untraced)
                  for name in END_TO_END}
        ops = sorted(x for p in untraced for x in p["latency_us"])
        values["latency_p50_us"] = percentile(ops, 50)
        values["latency_p98_us"] = percentile(ops, 98)
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"meta": meta, **result, "setup_samples": setups,
             "passes": [{"untraced": u, "traced": t} for u, t in pairs]},
            indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
