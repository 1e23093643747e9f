#!/usr/bin/env python3
"""Run every fsrkit benchmark workload and summarise it.

    python3 bench/suite.py --seeds 1-10            # ten runs per workload
    python3 bench/suite.py --seeds 1,2 --workloads fib2gal-search
    python3 bench/suite.py --seeds 1-10 --against .bench_work/results/suite-<time>.json

Each workload runs once per seed, each run in a fresh process of run.py
with BENCHMARK.json's run_seconds, then once traced with the first seed.
For every end-to-end metric it prints the median and quartiles over the
runs and their spread, (Q3 - Q1) / median, next to the metric's bound, and
the same for the raw set-up time and latencies in seconds, which are not
bounded because they follow the host's speed; for the traced run, each
reached layer's calls and self time and the tracing overhead.

It fails when a run fails, when an output check fails, when two seeds
report different metric names or units, or when a bounded metric spreads
more than its bound ("wide" marks a spread above a third of it). With
--against, it also fails when a median is worse than that earlier record's
by more than the bound. The record, with the Python version, the CPU count,
the git SHA and the seeds, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_work" / "results"
RUN_TIMEOUT_S = 300
RAW = (("setup_raw_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def consistent(result: dict, declared: dict) -> bool:
    """Correct, and exactly the declared metrics with their declared units."""
    metrics = result["metrics"]
    return (result["correct"] and set(metrics) == set(declared)
            and all(metrics[k]["unit"] == declared[k]["unit"] for k in metrics))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, Q1, Q3 and (Q3 - Q1) / median, as the acceptance rule takes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2", help="e.g. 1-10 or 1,2,5")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--against", type=Path,
                        help="an earlier suite record whose medians this run must not lose to")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seeds": seeds,
        "seconds": spec["run_seconds"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    print(f"python {record['python']}  nproc {record['nproc']}  git {record['git_sha']}  "
          f"seeds {args.seeds}  run_seconds {spec['run_seconds']}")
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        details = []
        for seed in seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            if not consistent(result, e2e):
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"metrics {sorted(result['metrics'])}")
                ok = False
            runs.append(result)
            details.append(json.loads(
                (RESULTS / f"{workload}-seed{seed}-trace0.json").read_text()))
        entry = {"runs": runs, "summary": {}}
        print(f"\n{workload}: {len(runs)} runs, attempted {runs[0]['attempted']}, "
              f"failed {runs[0]['failed']}, tail at p{details[0]['tail_percentile']:.1f} "
              f"of {details[0]['tail_samples']} commands")
        print(f"  {'metric':<14}{'unit':<7}{'median':>12}{'Q1':>12}{'Q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        rows = [(name, m["unit"], [r["metrics"][name]["value"] for r in runs], m["bound"])
                for name, m in e2e.items()]
        rows += [(name, unit, [d[name] for d in details], None) for name, unit in RAW]
        for name, unit, values, bound in rows:
            med, q1, q3, sp = spread(values)
            entry["summary"][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp}
            flag = ""
            if bound is not None and sp > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and sp > bound / 3:
                flag = "  wide"
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before:
                # the share by which the median got worse than the earlier one
                worse = (med - before["median"]) / before["median"]
                if name in e2e and e2e[name]["better"] == "higher":
                    worse = -worse
                entry["summary"][name]["worse_than_earlier"] = worse
                flag += f"  worse {worse:+.3f}"
                if bound is not None and worse > bound:
                    flag += " OVER BOUND"
                    ok = False
            print(f"  {name:<14}{unit:<7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{sp:>9.3f}{bound if bound is not None else 'raw':>7}{flag}")
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = traced
        if not consistent(traced, layer):
            print(f"{workload} traced: metrics differ from BENCHMARK.json")
            ok = False
        tm = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced (seed {seeds[0]}): overhead {tm['trace.overhead_s']:.3f} s, "
              f"span self times sum to {tm['trace.self_sum_s']:.3f} s")
        for name, value in tm.items():
            if name.endswith(".self_s") and value:
                fn = name[:-len(".self_s")]
                print(f"    {fn:<32}{tm[fn + '.calls']:>9} calls{value:>10.3f} s self")
        for name, value in tm.items():
            if not name.endswith((".calls", ".self_s")) and not name.startswith("trace."):
                if value:
                    print(f"    {name:<32}{value:>12.5g} {layer[name]['unit']}")
        record["workloads"][workload] = entry
    out = RESULTS / f"suite-{record['started']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nrecord: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
