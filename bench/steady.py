#!/usr/bin/env python3
"""Steadiness check: repeat each workload over seeds and compare spreads.

    python3 bench/steady.py --seeds 10 [--workloads phase-space,two-qubit] [--trace]

Runs ``bench/run.py`` at BENCHMARK.json's run length once per workload and
seed 1..--seeds, alternating the workload order from one seed to the next
(``--workloads`` narrows a quick check to the widest-spread ones), and
prints for each end-to-end metric its median, first and third quartiles
and the quartile spread as a share of the median next to the metric's
bound in BENCHMARK.json.  With ``--trace``
each run is repeated traced: the per-layer ``calls`` counts must repeat
exactly, and the tracing overhead is the traced items_per_s against the
untraced one.  The summary is also written to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    info = next(json.loads(l[2:]) for l in reversed(lines) if l.startswith("# {"))
    return json.loads(lines[-1]), info


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def versions() -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_rev": rev or "unknown"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    names = args.workloads.split(",")
    runs = {w: [] for w in names}
    traced = {w: [] for w in names}
    for seed in range(1, args.seeds + 1):
        for w in (names if seed % 2 == 1 else names[::-1]):
            result, info = run_once(w, seed, spec["run_seconds"], 0)
            runs[w].append((result, info))
            print(f"{w} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']} "
                  + " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
                  flush=True)
            if args.trace:
                traced[w].append(run_once(w, seed, spec["run_seconds"], 1))

    summary = {"versions": versions(), "seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for w in names:
        rows = {}
        print(f"\n{w}")
        shares = {r["failed"] / r["attempted"] for r, _ in runs[w]}
        correct = all(r["correct"] for r, _ in runs[w])
        print(f"  failed share {sorted(shares)} correct {correct}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs[w]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"]}
            flag = "ok" if spread <= m["bound"] / 3 else (
                "WIDE" if spread <= m["bound"] else "OVER")
            print(f"  {m['name']:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {m['bound']} {flag}")
        entry = {"metrics": rows, "failed_shares": sorted(shares), "correct": correct}
        if args.trace and traced[w]:
            plain = statistics.median(i["items_per_s"] for _, i in runs[w])
            slow = statistics.median(i["items_per_s"] for _, i in traced[w])
            calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                     for r, _ in traced[w]]
            same = all(c == calls[0] for c in calls)
            entry["tracing_overhead"] = plain / slow - 1.0
            entry["calls_repeat"] = same
            print(f"  tracing overhead {100 * (plain / slow - 1):.1f}% "
                  f"(items_per_s {plain:.6g} untraced, {slow:.6g} traced); "
                  f"calls repeat exactly: {same}")
        entry["runs"] = [{"metrics": {k: v["value"] for k, v in r["metrics"].items()},
                          **info} for r, info in runs[w]]
        summary["workloads"][w] = entry
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary["versions"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
