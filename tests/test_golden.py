"""fib2gal's stdout, byte for byte, on pinned runs.

Each file under tests/golden/ holds the exact stdout of one run on a committed
fixture. The runs cover the minimizing search (sampled and exhaustive), the
seeded sampler's draw order, and a fixed permutation with its synthesized
logic, so any change to the search, the sampler or the gate costs shows here.
The n = 6 and n = 8 runs pin the minimizing search where most of its work is
scoring candidates, not enumerating them.
"""

from pathlib import Path

import pytest

from fsrkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIB3 = str(ROOT / "fixtures" / "fib3_debruijn.fsr")
FIB4 = str(ROOT / "fixtures" / "fib4_debruijn.fsr")
FIB6 = str(ROOT / "fixtures" / "fib6_sparse.fsr")
FIB8 = str(ROOT / "fixtures" / "fib8_sparse.fsr")
PI4_DELTA = "d16[1 3 2 4 7 5 6 8 14 9 12 10 16 11 15 13]"

RUNS = {
    "fib4_budget100_seed1_minimize.out":
        [FIB4, "--budget", "100", "--seed", "1", "--minimize", "--emit", "all"],
    "fib4_budget5_seed3.out": [FIB4, "--budget", "5", "--seed", "3", "--emit", "all"],
    "fib4_perm_pi4.out": [FIB4, "--perm", PI4_DELTA, "--emit", "all"],
    "fib3_full_minimize.out": [FIB3, "--budget", "full", "--minimize", "--emit", "all"],
    "fib6_budget12_seed1_minimize.out":
        [FIB6, "--budget", "12", "--seed", "1", "--minimize", "--emit", "all"],
    "fib8_budget12_seed1_minimize.out":
        [FIB8, "--budget", "12", "--seed", "1", "--minimize", "--emit", "all"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fib2gal_stdout(name, capsys):
    code = main(["fib2gal", *RUNS[name]])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / name).read_text()
