#!/usr/bin/env python3
"""geochaos benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload phase-space --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload's inputs come from ``--seed``;
a run times whole rounds of the workload's fixed operation list, the number
of rounds being fixed by ``--seconds`` and the workload's nominal round time
(never by the clock), then checks every output against its oracle.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Set-up time is the median over fresh processes of the time from process
start to readiness (imports, seeded inputs, warm-up).
"""

from __future__ import annotations

import os

# one BLAS thread: the sweep's jobs are the only parallelism in a run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_program():
    """Import geochaos from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "geochaos" / "__init__.py").is_file():
        raise SystemExit(f"error: no geochaos sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import geochaos

    if Path(geochaos.__file__).resolve().parent != (src / "geochaos").resolve():
        raise SystemExit(f"error: imported geochaos from {geochaos.__file__}")
    import workloads

    return workloads


def set_up(args, scratch: Path):
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    workload.warmup()
    return workload


def time_setup(args) -> list[float]:
    """Wall time from spawning a fresh process to its 'ready' line."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up probe failed")
        samples.append(elapsed)
    return samples


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    return max(1, round(seconds / nominal_round_s))


def run_timed(workload, rounds: int, tracer=None):
    """Run whole rounds; return per-op records and the timed wall time."""
    records = []
    op_id = 0
    wall_start = time.perf_counter()
    for _ in range(rounds):
        for op in workload.round_ops:
            op_id += 1
            if tracer is not None:
                tracer.begin_op(op_id)
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            records.append((op, result, error, elapsed))
    return records, time.perf_counter() - wall_start


def verdicts(records):
    """Failed operations (by item count) and oracle problems of the rest."""
    failed, problems, failures = 0, [], []
    for op, result, error, _ in records:
        if error is not None:
            is_failed, found = True, []
        else:
            is_failed, found = op.check(result)
        if is_failed:
            failed += op.items
            failures.append(op.name if error is None else f"{op.name}: {error}")
        problems += [f"{op.name}: {p}" for p in found]
    return failed, problems, failures


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 40:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        scratch = OUT / f"probe-{os.getpid()}"
        try:
            set_up(args, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = OUT / f"run-{os.getpid()}"
    try:
        workload = set_up(args, scratch)
        setup_samples = time_setup(args)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        rounds = rounds_for(args.seconds, workload.nominal_round_s)
        try:
            records, wall = run_timed(workload, rounds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        failed, problems, failures = verdicts(records)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    items = sum(op.items for op, *_ in records)
    op_times = [r[3] for r in records]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": items / wall,
        "item_p50_s": statistics.median(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "operations": len(records), "items": items, "wall_s": wall,
            "setup_samples_s": setup_samples, "failures": failures,
            "problems": problems, "traced": bool(args.trace),
            "items_per_s": e2e["items_per_s"]}
    by_op: dict[str, list[float]] = {}
    for op, _, _, elapsed in records:
        by_op.setdefault(op.name, []).append(elapsed)
    info["op_p50_s"] = {k: statistics.median(v) for k, v in by_op.items()}
    tail = tail_percentile(op_times)
    if tail is not None:
        info[f"item_p{tail[0]}_s"] = tail[1]
    if tracer is not None:
        layers = tracer.layer_metrics()
        sweeps = [r for r in records if r[0].sweep]
        layers["cli.sweep.wall_s"] = sum(r[3] for r in sweeps)
        layers["cli.sweep.points"] = sum(r[0].items for r in sweeps)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    for problem in problems:
        print(f"# WRONG {problem}")
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": items,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
