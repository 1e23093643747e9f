"""Time and peak RSS of the CLI commands at start-up and on large register
files.

    PYTHONPATH=src python tests/scale.py [--startup] [n ...]

The start-up rows come first: `to-matrix` and `gal2fib` on
fixtures/gal3_two_attractors.fsr, and `verify` of fixtures/fib3_debruijn.fsr
against itself. At n = 3 a command's cost is the interpreter's and fsrkit's
start-up, so each runs STARTUP_RUNS times, each time in a fresh child, and
its row gives the medians. These children run with -S: the site module's
.pth files are the host's, and they can import more than fsrkit does (one
took 32 ms and loaded typing). A child compiles fsrkit's modules unless
their `__pycache__` is current, and PYTHONDONTWRITEBYTECODE=1 keeps it from
writing one: say which when quoting a row. --startup stops after these rows.

Then, for each n (default 12, 14 and 16) it writes three files: the sparse
Fibonacci register of conftest.sparse_fibonacci_text, the sparse shift
register of conftest.shift_galois_text and the dense conjugate of
conftest.dense_galois_text, whose inputs come from bench/model.py, loaded
by path and only read. The Fibonacci file goes to `fib2gal --minimize
--budget 4 --seed 1 --emit all`, to `verify` against itself and to
`to-matrix`, each Galois file to `to-matrix` and `gal2fib`. Each command then runs alone in a child
process, with its stdout discarded, and one line per command gives its exit
code, wall time and the child's peak RSS (its own rusage, from os.wait4).
The files are written by a child too: a child's peak RSS counts the pages
of the process it was forked from. Not part of the pytest run: it takes
about a minute, and `fib2gal --emit all` at n = 16 peaks near 460 MB.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# fixture -> the commands run on it, each with its arguments after the file
STARTUP = {
    "gal3_two_attractors.fsr": (("to-matrix",), ("gal2fib",)),
    "fib3_debruijn.fsr": (("verify", "{path}"),),
}
STARTUP_RUNS = 15

# input -> (the conftest function that writes it, the commands run on it,
# each with its arguments after the file)
INPUTS = {
    "fib": ("sparse_fibonacci_text", (
        ("fib2gal", "--minimize", "--budget", "4", "--seed", "1", "--emit", "all"),
        ("verify", "{path}"),
        ("to-matrix",),
    )),
    "sparse": ("shift_galois_text", (("to-matrix",), ("gal2fib",))),
    "dense": ("dense_galois_text", (("to-matrix",), ("gal2fib",))),
}
CLI = "import sys; from fsrkit.cli import main; sys.exit(main(sys.argv[1:]))"


def write_inputs(folder: str, n: int) -> None:
    import conftest

    for name, (build, _) in INPUTS.items():
        (Path(folder) / f"{name}{n}.fsr").write_text(getattr(conftest, build)(n))


def run_child(argv: list[str]) -> tuple[int, float, float, str]:
    """Exit code, seconds, peak RSS in MB and stderr of one child."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as child:
        err = child.stderr.read().decode()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, seconds, usage.ru_maxrss / 1024, err


def row(n: int, name: str, command: str, rc: int, seconds: float, mb: float, err: str) -> None:
    note = f"  {err.strip()}" if rc else ""
    print(f"{n:>3} {name:<7} {command:<10} {rc:>3} {seconds:>8.3f} {mb:>8.1f}{note}", flush=True)


def startup() -> None:
    """The median time and peak RSS of each start-up command over
    STARTUP_RUNS fresh children, with the exit code and stderr of the last."""
    for fixture, commands in STARTUP.items():
        path = str(FIXTURES / fixture)
        for command, *rest in commands:
            args = [command, path, *(a.format(path=path) for a in rest)]
            runs = [run_child([sys.executable, "-S", "-c", CLI, *args])
                    for _ in range(STARTUP_RUNS)]
            rc, _, _, err = runs[-1]
            row(3, fixture.split("_")[0], command, rc, statistics.median(r[1] for r in runs),
                statistics.median(r[2] for r in runs), err)


def main(sizes: list[int], only_startup: bool) -> None:
    print(f"{'n':>3} {'input':<7} {'command':<10} {'rc':>3} {'seconds':>8} {'peak MB':>8}")
    startup()
    if only_startup:
        return
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            rc, _, _, err = run_child([sys.executable, __file__, "--write", tmp, str(n)])
            if rc:
                sys.exit(f"writing the n={n} inputs failed:\n{err}")
            for name, (_, commands) in INPUTS.items():
                path = str(Path(tmp) / f"{name}{n}.fsr")
                for command, *rest in commands:
                    args = [command, path, *(a.format(path=path) for a in rest)]
                    row(n, name, command, *run_child([sys.executable, "-c", CLI, *args]))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write_inputs(sys.argv[2], int(sys.argv[3]))
    else:
        only_startup = "--startup" in sys.argv[1:]
        sizes = [int(a) for a in sys.argv[1:] if a != "--startup"]
        main(sizes or [12, 14, 16], only_startup)
