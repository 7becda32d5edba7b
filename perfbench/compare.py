#!/usr/bin/env python3
"""Compares perfbench results of two commits.

    python3 perfbench/compare.py --base A1.json A2.json ... \
        --new B1.json B2.json ...

Each file is a `run.py --out` result of one workload. The script takes
each side's median of every metric and prints the change against the
bound BENCHMARK.json fixes for it (end-to-end metrics only; per-layer
metrics have no bound). It refuses to compare (exit 3) results whose
host_nproc, build type, cold flag, workload or trace mode differ, and
exits 1 when a bounded metric worsened past its bound or a result failed
its output checks.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("host_nproc", "build_type", "cold", "workload", "traced")


def load(paths):
    results = [json.loads(Path(p).read_text()) for p in paths]
    if not results:
        sys.exit("compare: no results given")
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)

    for key in MUST_MATCH:
        values = {json.dumps(r["meta"][key]) for r in base + new}
        if len(values) != 1:
            print(f"compare: refusing: results differ in {key}: "
                  f"{sorted(values)}", file=sys.stderr)
            sys.exit(3)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    worse = []
    print(f"workload {base[0]['meta']['workload']}: "
          f"{len(base)} base vs {len(new)} new results")
    for name in base[0]["metrics"]:
        info = bounded.get(name) or layer.get(name)
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        line = f"  {name:32s} {b:14.6g} -> {n:14.6g}  {change:+8.2%}"
        if name in bounded:
            sign = 1 if info["better"] == "lower" else -1
            if sign * change > info["bound"]:
                worse.append(name)
                line += f"  WORSE than bound {info['bound']:.0%}"
        print(line)
    bad = [r["meta"]["seed"] for r in base + new if not r["correct"]]
    if bad:
        print(f"compare: results failed their checks (seeds {bad})",
              file=sys.stderr)
    sys.exit(1 if worse or bad else 0)


if __name__ == "__main__":
    main()
