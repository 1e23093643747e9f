"""The three workloads: seeded input files and the fixed command list of a pass.

Every input comes from random.Random(seed) and the benchmark's own model, so
the same seed writes the same files. fsrkit sees only those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import model as m
from check import check_fib2gal, check_gal2fib, check_verify

# fib2gal-search: (n, commands, budget). The counts put both the median
# command and the tail (10 commands beyond it) inside the n=6 group, away
# from the jumps in cost between groups.
FIB2GAL_PLAN = ((3, 2, "full"), (4, 10, 12), (5, 10, 12), (6, 20, 12), (7, 2, 12), (8, 2, 12))

# gal2fib-reconstruct: round-trip files per n, random short-window (l <= 13)
# files per n, and random long-window (15 <= l <= 16) files at n=9. From
# l = 14 on, `completions = 2^free` has more than 4300 decimal digits and
# the CLI exits 2; the benchmark keeps those commands and counts them.
# The counts put the median command among the n=8 round trips and the tail
# among the n=9 ones. Round trips keep cycles of at most ROUNDTRIP_MAX_CYCLE
# states: the rare register with a long cycle costs twice as much. They also
# keep tails (preperiods) of at most ROUNDTRIP_MAX_TAIL states: an n=9 round
# trip's cost rises with its longest tail, 1.6x from 10 to 50 states.
ROUNDTRIP_PLAN = ((6, 4), (7, 4), (8, 16), (9, 16))
ROUNDTRIP_MAX_CYCLE = 16
ROUNDTRIP_MAX_TAIL = 30
SHORT_PLAN = ((6, 4), (7, 4), (8, 4), (9, 4))
LONG_N, LONG_COUNT, LONG_BAND = 9, 8, (15, 16)
# About 6% of random n=9 registers fall in LONG_BAND, so the draws it takes
# to find LONG_COUNT of them swing 2x with the seed. All LONG_DRAWS are made
# whatever the seed (fewer than LONG_COUNT hits in them is rare, and then
# drawing goes on), which keeps the cost of a set-up steady.
LONG_DRAWS = 320
# gal2fib enumerates every completion while free columns <= --max-free;
# the default of 20 can mean 2^20 matrices, too much memory for a shared host.
MAX_FREE = "12"

# verify-longperiod: de Bruijn pairs per n, and sparse nonsingular pairs per
# n with the sum of squared cycle lengths (which the cost follows) nearest a
# target among SPARSE_DRAWS seeded registers, so that neither the cost of a
# command nor the set-up time swings with the seed. A sparse register is
# paired with its own conjugate; every other de Bruijn register with the
# conjugate of a different one, a verdict the model settles. A pass is kept
# near 6000 reference loops so that two or three passes fit in a run even
# when the host runs at half speed.
DEBRUIJN_PLAN = ((9, 16), (10, 1))
SPARSE_PLAN = ((11, 2, 0.575e6), (12, 1, 0.825e6))
SPARSE_DRAWS = 160


@dataclass
class Command:
    argv: list[str]
    row: dict
    check: Callable[[int, str], dict] = field(repr=False)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _fib_file(n: int, monos) -> str:
    return f"n={n} type=fib\nf{n} = {m.render_anf(monos)}\n"


def _gal_file(n: int, tables) -> str:
    lines = [f"n={n} type=gal"]
    lines += [f"f{k} = {m.render_anf(m.anf_of(t, n))}" for k, t in enumerate(tables, 1)]
    return "\n".join(lines) + "\n"


def fib2gal_search(rng: random.Random, work: Path) -> list[Command]:
    sample_seed = rng.randrange(1 << 30)
    cmds = []
    for n, count, budget in FIB2GAL_PLAN:
        for _ in range(count):
            monos = m.random_anf(rng, n, rng.randint(2, 4), 3)
            nxt = m.fib_next(n, m.table_of(monos, n))
            path = _write(work / f"fib{len(cmds)}.fsr", _fib_file(n, monos))
            argv = ["fib2gal", path, "--minimize", "--emit", "all", "--budget", str(budget)]
            if budget != "full":
                argv += ["--seed", str(sample_seed)]
            lf = m.to_cols(nxt)
            cmds.append(Command(
                argv,
                {"kind": "fib", "n": n, "budget": budget, "l": None, **m.cycle_profile(nxt)},
                lambda rc, out, n=n, lf=lf: check_fib2gal(rc, out, n, lf),
            ))
    return cmds


def _gal2fib_command(work: Path, idx: int, kind: str, n: int, nxt, l: int) -> Command:
    path = _write(work / f"gal{idx}.fsr", _gal_file(n, m.coordinate_tables(nxt, n)))
    max_l = n if kind == "roundtrip" else None
    return Command(
        ["gal2fib", path, "--max-free", MAX_FREE],
        {"kind": kind, "n": n, "budget": None, "l": l, **m.cycle_profile(nxt)},
        lambda rc, out: check_gal2fib(rc, out, n, nxt, l, max_l),
    )


def _short_cycled_fibonacci(rng: random.Random, n: int) -> list[int]:
    """First seeded sparse-ANF Fibonacci register with no cycle or tail over the limits."""
    while True:
        monos = m.random_anf(rng, n, rng.randint(2, 4), 3)
        nxt = m.fib_next(n, m.table_of(monos, n))
        if (max(len(c) for c in m.cycles(nxt)) <= ROUNDTRIP_MAX_CYCLE
                and max(m.orbits(nxt)[0]) <= ROUNDTRIP_MAX_TAIL):
            return nxt


def _random_galois(rng: random.Random, n: int):
    """A seeded sparse-ANF Galois register and its window length."""
    tables = [m.table_of(m.random_anf(rng, n, rng.randint(2, 4), 3), n) for _ in range(n)]
    nxt = m.gal_next(n, tables)
    return nxt, m.window_length(nxt, n)


def _short_galois(rng: random.Random, n: int):
    """First seeded Galois register whose window length is at most 13."""
    while True:
        nxt, l = _random_galois(rng, n)
        if l <= 13:
            return nxt, l


def _long_galois(rng: random.Random):
    """The first LONG_COUNT of LONG_DRAWS seeded registers in LONG_BAND."""
    found = []
    draws = 0
    while draws < LONG_DRAWS or len(found) < LONG_COUNT:
        nxt, l = _random_galois(rng, LONG_N)
        draws += 1
        if LONG_BAND[0] <= l <= LONG_BAND[1]:
            found.append((nxt, l))
    return found[:LONG_COUNT]


def gal2fib_reconstruct(rng: random.Random, work: Path) -> list[Command]:
    specs = []
    for n, count in ROUNDTRIP_PLAN:
        for _ in range(count):
            fib = _short_cycled_fibonacci(rng, n)
            nxt = m.from_cols(m.conjugate_cols(m.to_cols(fib), m.random_partition_perm(rng, n)))
            specs.append(("roundtrip", n, nxt, m.window_length(nxt, n)))
    for n, count in SHORT_PLAN:
        for _ in range(count):
            specs.append(("short", n, *_short_galois(rng, n)))
    specs += [("long", LONG_N, nxt, l) for nxt, l in _long_galois(rng)]
    return [_gal2fib_command(work, i, *spec) for i, spec in enumerate(specs)]


def _sparse_nonsingular(rng: random.Random, n: int, target: float):
    """Of SPARSE_DRAWS seeded x1 ^ g(x2..xn), g sparse, the one whose sum of
    squared cycle lengths is nearest the target."""
    best = None
    for _ in range(SPARSE_DRAWS):
        monos = [(1,)] + m.random_anf(rng, n, rng.randint(2, 4), 3, first_var=2)
        nxt = m.fib_next(n, m.table_of(monos, n))
        miss = abs(sum(len(c) ** 2 for c in m.cycles(nxt)) - target)
        if best is None or miss < best[0]:
            best = (miss, monos)
    return best[1]


def verify_longperiod(rng: random.Random, work: Path) -> list[Command]:
    plan = [(n, None) for n, count in DEBRUIJN_PLAN for _ in range(count)]
    plan += [(n, target) for n, count, target in SPARSE_PLAN for _ in range(count)]

    def draw(n, target):
        if target is None:
            return m.de_bruijn_feedback(rng, n)
        return _sparse_nonsingular(rng, n, target)

    cmds = []
    for idx, (n, target) in enumerate(plan):
        a = draw(n, target)
        b = a if target is not None or idx % 2 == 0 else draw(n, target)
        nxt_a = m.fib_next(n, m.table_of(a, n))
        b_cols = m.conjugate_cols(m.to_cols(m.fib_next(n, m.table_of(b, n))),
                                  m.random_partition_perm(rng, n))
        equivalent = m.necklaces(nxt_a, n) == m.necklaces(m.from_cols(b_cols), n)
        path_a = _write(work / f"ver{idx}.fsr", _fib_file(n, a))
        path_b = _write(work / f"ver{idx}.delta", m.delta_text(b_cols) + "\n")
        cmds.append(Command(
            ["verify", path_a, path_b],
            {"kind": "same" if b is a else "other", "n": n, "budget": None, "l": None,
             "equivalent": equivalent, **m.cycle_profile(nxt_a)},
            lambda rc, out, n=n, eq=equivalent: check_verify(rc, out, n, eq),
        ))
    return cmds


BUILDERS = {
    "fib2gal-search": fib2gal_search,
    "gal2fib-reconstruct": gal2fib_reconstruct,
    "verify-longperiod": verify_longperiod,
}


def build(name: str, seed: int, work: Path) -> list[Command]:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}/{seed}"), work)
