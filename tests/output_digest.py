"""One line per benchmark command: its exit code, digests of its stdout and
stderr, and its argv, as fsrkit.cli.main gives them.

    PYTHONPATH=src python tests/output_digest.py [seed ...] > digest.txt

For each workload of bench/workloads.py and each seed (default 1, 2 and 5)
it writes the workload's input files into a temporary folder with
bench/workloads.build and runs each command in this process, stdout and
stderr captured. The folder's path reads `<work>` in every line, so two
source trees, each on PYTHONPATH in turn, give the benchmark's commands the
same (argv, exit code, stdout, stderr) exactly when the two outputs diff
clean. It only reads bench/: no bytecode is written there. Not part of the
pytest run: it asserts nothing, and its lines mean something only beside
another tree's. The 390 default commands take about 5 s on 2 vCPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fsrkit.cli import main

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads

SEEDS = (1, 2, 5)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(argv: list[str]) -> tuple[int | str, str, str]:
    """Exit code, or the name of what main raised, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception as exc:  # the CLI would die with a traceback
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def lines(name: str, seed: int) -> list[str]:
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, cmd in enumerate(workloads.build(name, seed, Path(tmp))):
            rc, out, err = (str(part).replace(tmp, "<work>") for part in run(cmd.argv))
            argv = " ".join(cmd.argv).replace(tmp, "<work>")
            found.append(f"{name} {seed} {i} rc={rc} out={digest(out)} err={digest(err)} {argv}")
    return found


if __name__ == "__main__":
    for seed in [int(a) for a in sys.argv[1:]] or SEEDS:
        for name in workloads.BUILDERS:
            print("\n".join(lines(name, seed)), flush=True)
