#!/usr/bin/env python3
"""Run one fsrkit benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload fib2gal-search --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: fsrkit is imported from ./src,
nothing is installed. The seed fixes the generated input files (written
under .bench_work/ and removed afterwards); fsrkit sees only those files.

One client drives the public entry point fsrkit.cli.main(argv) in a closed
loop: the workload's fixed command list (a pass) runs command after command,
no threads, stdout and stderr captured. A set-up (a fresh import of fsrkit
and the input generation) and a pass repeat while another pass fits in
--seconds; at least one pass and three set-ups always run. Every output of
the first pass is checked against the benchmark's own model, outside the
timed region; later passes must repeat it byte for byte. A command that
exits 2, or raises out of main (a traceback for a user), has failed.

--trace 0 reports the end-to-end metrics: the latencies in multiples of a
reference loop timed alongside, and setup_s in the same units converted to
seconds at a fixed loop time (see end_to_end).
--trace 1 runs each command once untraced and once traced, alternating
which goes first, and reports per-layer calls, self times and counters; the
tracing overhead is the traced minus the untraced total.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
A wrong output exits 1 without that line. Details, including one row per
command and the latencies in seconds, go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from check import WrongOutput
from tracing import TRACED, TraceError, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_SETUPS = 5  # set-ups per run, at least; setup_s is their median
REF_AROUND = 3  # reference loops timed before a set-up, and as many after
REF_ITERATIONS = 10_000  # the reference loop takes 1-3 ms
REF_NOMINAL_S = 1.2e-3  # the loop's uncontended time on the 2-vCPU development host
TAIL_BEYOND = 10  # the tail latency has this many commands above it
FAILED = (2, None)  # exit code 2, or an exception out of main
MODULES = ("cli", "expr", "fib", "fib2gal", "gal2fib", "stp")  # the layers


def load_fsrkit() -> dict:
    """Import fsrkit afresh from ./src, so each set-up pays for the import."""
    src = ROOT / "src"
    if not (src / "fsrkit" / "__init__.py").is_file():
        sys.exit(f"error: no fsrkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "fsrkit" or n.startswith("fsrkit.")]:
        del sys.modules[name]
    mods = {"fsrkit": importlib.import_module("fsrkit")}
    if Path(mods["fsrkit"].__file__).resolve().parent != (src / "fsrkit").resolve():
        sys.exit(f"error: fsrkit was imported from {mods['fsrkit'].__file__}, not {src}")
    for name in MODULES:
        mods[name] = importlib.import_module(f"fsrkit.{name}")
    return mods


def execute(main, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Exit code (None if main raised), stdout, stderr and latency."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception as exc:  # the CLI would die with a traceback
            rc = None
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_one(main, i: int, cmd, rows: dict) -> float:
    """Run command i once and return its latency.

    The first time a command runs, its output is checked and its row
    recorded; afterwards its exit code and output must not change.
    """
    rc, out, err, elapsed = execute(main, cmd.argv)
    digest = hashlib.blake2b(out.encode(), digest_size=16).hexdigest()
    if i in rows:
        if (rc, digest) != (rows[i]["rc"], rows[i]["digest"]):
            raise WrongOutput(f"{' '.join(cmd.argv)}: output changed on a repeat")
        return elapsed
    if rc not in (0, 1, 2, None):
        raise WrongOutput(f"{' '.join(cmd.argv)}: exit code {rc!r}")
    try:
        figures = cmd.check(rc, out) if rc is not None else {}
    except WrongOutput as exc:
        raise WrongOutput(f"{' '.join(cmd.argv)}: {exc}") from None
    rows[i] = {"slot": i, **cmd.row, "rc": rc, "digest": digest, **figures}
    if rc in FAILED:
        rows[i]["stderr"] = err.splitlines()[0] if err else ""
    return elapsed


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop, the unit of the `_ref` metrics."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return time.perf_counter() - start


def run_pass(main, cmds, rows: dict) -> tuple[list[float], list[float]]:
    """Latency of each command, and the reference loop's time around it.

    The loop runs before the first command and after each one; a command's
    reference is the median of the three loop times before it and the three
    after it, so it follows the host's speed while the command ran.
    """
    refs = [reference_loop()]
    latencies = []
    for i, cmd in enumerate(cmds):
        latencies.append(run_one(main, i, cmd, rows))
        refs.append(reference_loop())
    return latencies, [statistics.median(refs[max(0, i - 2):i + 4]) for i in range(len(cmds))]


def timed_setup(setup) -> tuple[dict, list, float, float]:
    """A set-up, its time, and the median reference loop around it."""
    refs = [reference_loop() for _ in range(REF_AROUND)]
    mods, cmds, took = setup()
    refs += [reference_loop() for _ in range(REF_AROUND)]
    return mods, cmds, took, statistics.median(refs)


def end_to_end(setup, seconds: float, rows: dict) -> tuple[dict, dict]:
    """A set-up and a pass, repeated while another pass fits in `seconds`.

    Spreading the set-ups over the run lets their median see the host as
    the passes do.
    """
    passes = []
    setups = []
    begin = time.perf_counter()
    while True:
        mods, cmds, took, ref = timed_setup(setup)
        setups.append((took, ref))
        passes.append(run_pass(mods["cli"].main, cmds, rows))
        if time.perf_counter() - begin + sum(passes[-1][0]) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(setup)[2:])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Latencies in reference-loop units: on a shared host the speed of the
    # machine changes by up to 1.9x for minutes at a time, and the ratio to
    # a loop timed alongside cancels that. Per-command medians over passes;
    # percentiles are taken over commands. setup_s is reported in seconds:
    # each set-up in loop units, times the loop's fixed nominal time.
    norm = [[t / r for t, r in zip(lat, ref)] for lat, ref in passes]
    slot = [statistics.median(p[i] for p in norm) for i in range(len(cmds))]
    raw = [statistics.median(lat[i] for lat, _ in passes) for i in range(len(cmds))]
    for i in range(len(cmds)):
        rows[i]["latency_ref"] = slot[i]
        rows[i]["latency_ms"] = raw[i] * 1e3
        rows[i]["runs_ms"] = [lat[i] * 1e3 for lat, _ in passes]
    failed = sum(1 for r in rows.values() if r["rc"] in FAILED)
    metrics = {
        "setup_s": statistics.median(t / r for t, r in setups) * REF_NOMINAL_S,
        "wall_ref": statistics.median(sum(p) for p in norm),
        "op_p50_ref": statistics.median(slot),
        "op_tail_ref": sorted(slot)[-TAIL_BEYOND - 1],
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1 - failed / len(cmds),
    }
    info = {
        "commands": len(cmds),
        "passes": len(passes),
        "setups_s": [t for t, _ in setups],
        "setups_ref": [t / r for t, r in setups],
        "setup_raw_s": statistics.median(t for t, _ in setups),
        "tail_percentile": 100 * (1 - TAIL_BEYOND / len(cmds)),
        "tail_samples": len(cmds),
        "failed_ratio": failed / len(cmds),
        "ref_loop_ms": statistics.median(r for _, ref in passes for r in ref) * 1e3,
        "wall_s": statistics.median(sum(lat) for lat, _ in passes),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_tail_ms": sorted(raw)[-TAIL_BEYOND - 1] * 1e3,
        "pass_wall_s": [sum(lat) for lat, _ in passes],
    }
    return metrics, info


def per_layer(mods: dict, cmds, rows: dict) -> tuple[dict, dict]:
    """Each command once untraced and once traced, alternating which goes first."""
    tracer = Tracer()
    untraced = [0.0] * len(cmds)
    traced = [0.0] * len(cmds)
    for i, cmd in enumerate(cmds):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_spans:
                untraced[i] = run_one(mods["cli"].main, i, cmd, rows)
                continue
            patches = tracer.install(mods)
            try:
                traced[i] = run_one(mods["cli"].main, i, cmd, rows)
            finally:
                Tracer.uninstall(patches)
    calls, self_s, roots = tracer.summary()
    # the spans must cover the traced commands, less the harness around main
    gap = sum(traced) - roots
    if not 0 <= gap <= 0.01 * sum(traced):
        raise WrongOutput(f"spans cover {roots:.3f} s of {sum(traced):.3f} s traced")
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    fib_wall = sum(t for t, c in zip(untraced, cmds) if c.argv[0] == "fib2gal")
    metrics.update({
        "fib2gal.distinct_ratio": tracer.distinct / tracer.yielded if tracer.yielded else 0.0,
        "fib2gal.cand_per_s": calls["fib2gal.reduce_candidate"] / fib_wall if fib_wall else 0.0,
        "fib2gal.support_sum": sum(r.get("support_sum", 0) for r in rows.values()),
        "fib2gal.gate_area_um2": sum(r.get("area_um2", 0.0) for r in rows.values()),
        "gal2fib.l_tried": (calls["gal2fib.derived_digraph"] / calls["gal2fib.min_stage_fibonacci"]
                            if calls["gal2fib.min_stage_fibonacci"] else 0.0),
        "gal2fib.fixed_ratio": (statistics.fmean(tracer.fixed_ratios)
                                if tracer.fixed_ratios else 0.0),
        "trace.overhead_s": sum(traced) - sum(untraced),
        "trace.self_sum_s": sum(self_s.values()),
    })
    info = {
        "commands": len(cmds),
        "passes": 2,
        "untraced_wall_s": sum(untraced),
        "traced_wall_s": sum(traced),
        "spans": len(tracer.names),
        "harness_gap_s": gap,
    }
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"

    def setup():
        start = time.perf_counter()
        mods = load_fsrkit()
        cmds = workloads.build(args.workload, args.seed, work)
        return mods, cmds, time.perf_counter() - start

    rows: dict = {}
    try:
        if args.trace:
            mods, cmds, _ = setup()
            metrics, info = per_layer(mods, cmds, rows)
        else:
            metrics, info = end_to_end(setup, args.seconds, rows)
    except WrongOutput as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1
    except TraceError as exc:
        print(f"tracing: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = info["commands"] * info["passes"]
    failed = sum(1 for r in rows.values() if r["rc"] in FAILED) * info["passes"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **info,
        "metrics": metrics,
        "rows": [rows[i] for i in sorted(rows)],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}")
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


UNITS = {
    "setup_s": "s", "wall_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref",
    "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "fib2gal.distinct_ratio": "ratio", "fib2gal.cand_per_s": "1/s",
    "fib2gal.support_sum": "count", "fib2gal.gate_area_um2": "um2",
    "gal2fib.l_tried": "count", "gal2fib.fixed_ratio": "ratio",
    "trace.overhead_s": "s", "trace.self_sum_s": "s",
    **{f"{name}.calls": "count" for name in TRACED},
    **{f"{name}.self_s": "s" for name in TRACED},
}

if __name__ == "__main__":
    sys.exit(main())
