"""fib2gal's and gal2fib's stdout, byte for byte, on pinned runs.

Each file under tests/golden/ holds the exact stdout of one run on a committed
fixture. The fib2gal runs cover the minimizing search (sampled and
exhaustive), the seeded sampler's draw order, and a fixed permutation with
its synthesized logic, so any change to the search, the sampler or the gate
costs shows here. The n = 6 and n = 8 runs pin the minimizing search where
most of its work is scoring candidates, not enumerating them. The gal2fib
runs pin P, T' and the completions on both Galois fixtures. The verify runs
pin the verdict and the state mapping of an equivalent pair (the 4-stage
fixture against its conjugate by PI4, read from a bare delta file) and of a
pair that is not, whose mapping has None entries. At window lengths
of 14 and 16 the stdout is 0.1-0.5 MB, so there only its sha256 is pinned.
"""

import hashlib
import random
from pathlib import Path

import pytest

from fsrkit.cli import main

from conftest import COUNTER5, sparse_galois_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIB3 = str(ROOT / "fixtures" / "fib3_debruijn.fsr")
FIB4 = str(ROOT / "fixtures" / "fib4_debruijn.fsr")
FIB6 = str(ROOT / "fixtures" / "fib6_sparse.fsr")
FIB8 = str(ROOT / "fixtures" / "fib8_sparse.fsr")
GAL3A = str(ROOT / "fixtures" / "gal3_shrinkable.fsr")
GAL3B = str(ROOT / "fixtures" / "gal3_two_attractors.fsr")
GAL4_PI4 = str(ROOT / "fixtures" / "gal4_perm_pi4.delta")
PI4_DELTA = "d16[1 3 2 4 7 5 6 8 14 9 12 10 16 11 15 13]"

# golden file -> the command line whose stdout it holds
RUNS = {
    "fib4_budget100_seed1_minimize.out":
        ["fib2gal", FIB4, "--budget", "100", "--seed", "1", "--minimize", "--emit", "all"],
    "fib4_budget5_seed3.out": ["fib2gal", FIB4, "--budget", "5", "--seed", "3", "--emit", "all"],
    "fib4_perm_pi4.out": ["fib2gal", FIB4, "--perm", PI4_DELTA, "--emit", "all"],
    "fib3_full_minimize.out":
        ["fib2gal", FIB3, "--budget", "full", "--minimize", "--emit", "all"],
    "fib6_budget12_seed1_minimize.out":
        ["fib2gal", FIB6, "--budget", "12", "--seed", "1", "--minimize", "--emit", "all"],
    "fib8_budget12_seed1_minimize.out":
        ["fib2gal", FIB8, "--budget", "12", "--seed", "1", "--minimize", "--emit", "all"],
    "gal3_shrinkable.out": ["gal2fib", GAL3A],
    "gal3_shrinkable_all_completions.out": ["gal2fib", GAL3A, "--all-completions"],
    "gal3_two_attractors.out": ["gal2fib", GAL3B],
    "gal3_two_attractors_all_completions.out": ["gal2fib", GAL3B, "--all-completions"],
    "verify_fib4_gal4_pi4.out": ["verify", FIB4, GAL4_PI4],
    "verify_gal3_shrinkable_two_attractors.out": ["verify", GAL3A, GAL3B],
}

# golden file -> exit code, where it is not 0
CODES = {"verify_gal3_shrinkable_two_attractors.out": 1}

# gal2fib input -> sha256 of its stdout (l = 14 and l = 16)
DIGESTS = {
    "counter5": (COUNTER5, "e271c5113973367f5e8275e08899d701bdec491c5ef78c25e225dd80789e817a"),
    "sparse_galois_50_9": (
        sparse_galois_text(random.Random(50), 9),
        "39acc36b87c76d7406b1fa76054a3660d5c48b49d8acdda8e34d5899e633da28",
    ),
}


def runs_of(command: str) -> list[str]:
    return sorted(name for name, argv in RUNS.items() if argv[0] == command)


def assert_golden(name, capsys):
    code = main(RUNS[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (CODES.get(name, 0), "")
    assert captured.out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", runs_of("fib2gal"))
def test_fib2gal_stdout(name, capsys):
    assert_golden(name, capsys)


@pytest.mark.parametrize("name", runs_of("gal2fib"))
def test_gal2fib_stdout(name, capsys):
    assert_golden(name, capsys)


@pytest.mark.parametrize("name", runs_of("verify"))
def test_verify_stdout(name, capsys):
    assert_golden(name, capsys)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_gal2fib_long_window_digest(name, capsys, tmp_path):
    text, digest = DIGESTS[name]
    path = tmp_path / f"{name}.fsr"
    path.write_text(text)
    code = main(["gal2fib", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
