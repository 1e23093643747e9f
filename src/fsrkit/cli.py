"""Command-line front end: parse FSR files, transform, verify, simulate.

Exit codes: 0 success (verify: equivalent), 1 verify mismatch, 2 any error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from collections.abc import Iterator

from . import expr as ex
from .fib import fib_transition
from .fib2gal import (
    conjugate,
    enumerate_equivalents,
    reduce_candidate,
    search_plan,
    select_minimal,
)
from .gal2fib import _BITS_TO_DIGITS, equivalent, min_stage_fibonacci, simulate
from .stp import (
    FsrSpec,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    _mask_to_rows,
    _read_table,
    _table_reader,
    delta_pieces,
    encode_state,
    format_delta,
    galois_transition,
    parse_delta,
    transition_from_delta,
    transition_to_delta,
)
# not called here: bench/tracing.py wraps it at this module's binding
from .stp import structure_matrix

#: Largest register count a file may declare. Its update lines are read into
#: truth tables of 2^n bits each, and its transition matrix has 2^n columns.
MAX_STAGES = 20


def _lines(text: str) -> Iterator[str]:
    """str.splitlines() of text, a line at a time: it holds no copy of the text."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        line = text[start:end]  # one line, unless it holds another boundary
        yield from [line] if line.splitlines() == [line] else (line + "\n").splitlines()
        start = end + 1
    yield from text[start:].splitlines()


def parse_fsr_file(text: str) -> FsrSpec:
    lines = filter(None, (ln.split("#", 1)[0].strip() for ln in _lines(text)))
    first = next(lines, None)
    if first is None:
        raise ValueError("empty file")
    items = [item.partition("=") for item in first.split()]
    header = {key: value for key, eq, value in items if eq}
    if len(items) != 2 or header.keys() != {"n", "type"}:
        raise ValueError("header must be `n=<int> type=<fib|gal>`")
    try:
        n = int(header["n"])
    except ValueError:
        raise ValueError(f"bad register count {header['n']!r}") from None
    kind = {"fib": "fibonacci", "gal": "galois"}.get(header["type"])
    if kind is None or n < 1:
        raise ValueError("header must be `n=<int> type=<fib|gal>` with n >= 1")
    if n > MAX_STAGES:
        raise ValueError(f"register count {n} exceeds the limit of {MAX_STAGES}")
    tables: dict[int, int] = {}
    # the lines of a Galois file share terms; a Fibonacci file has one line
    read = _table_reader(n) if kind == "galois" else functools.partial(_read_table, n=n)
    for ln in lines:
        name, eq, rhs = ln.partition("=")
        name = name.strip()
        if not (eq and name.startswith("f") and name[1:].isdecimal()):
            raise ValueError(f"unrecognized line: {ln!r}")
        k = int(name[1:])
        if not 1 <= k <= n:
            raise ValueError(f"register {name} out of range for n={n}")
        if k in tables:
            raise ValueError(f"duplicate definition of {name}")
        tables[k] = read(rhs.strip())
    return FsrSpec(n, kind, tables)


def load_fsr_file(path: str) -> FsrSpec:
    with open(path) as fh:
        return parse_fsr_file(fh.read())


def transition(spec: FsrSpec) -> TransitionMatrix:
    """L of a spec. A Fibonacci spec's L follows from its feedback by the
    shift law, which builds it faster than its tables do."""
    if spec.kind == "fibonacci":
        return fib_transition(StructureMatrix(spec.n, _mask_to_rows(spec.tables[spec.n], spec.n)))
    return galois_transition(spec)


def load_matrix(path: str) -> TransitionMatrix:
    """A path holding either an FSR file or a bare delta-format matrix."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("d") and "[" in stripped:
        return transition_from_delta(stripped)
    return transition(parse_fsr_file(text))


def _emit_logic(n: int, updates) -> str:
    lines = [f"n={n} type=gal"]
    for k, e in enumerate(updates, start=1):
        lines.append(f"f{k} = {ex.render(e)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_to_matrix(args) -> int:
    fsr = load_fsr_file(args.input)
    print(transition_to_delta(transition(fsr)))
    return 0


def cmd_fib2gal(args) -> int:
    fsr = load_fsr_file(args.input)
    if fsr.kind != "fibonacci":
        raise ValueError("fib2gal needs a Fibonacci input file")
    L_f = transition(fsr)

    if args.perm is not None:
        if args.minimize or args.seed is not None or args.budget != "full":
            raise ValueError("--perm applies one fixed permutation: "
                             "it takes no --minimize, --seed or --budget")
        size, entries = parse_delta(args.perm)
        if size != 1 << fsr.n or len(entries) != size or None in entries:
            raise ValueError(f"permutation must be a complete d{1 << fsr.n}[...] sequence")
        pi = PermutationTransform(fsr.n, entries)  # type: ignore[arg-type]
        L_g = conjugate(L_f, pi)
        print(f"L_g = {transition_to_delta(L_g)}")
        print(f"T = {format_delta(size, pi.perm)}")
        if args.emit in ("logic", "all"):
            print(_emit_logic(fsr.n, reduce_candidate(L_g).updates))
        return 0

    try:
        budget = None if args.budget == "full" else int(args.budget)
    except ValueError:
        raise ValueError(f"budget must be an integer or 'full', got {args.budget!r}") from None
    if budget == 0 and not args.minimize:
        print(f"# examined=0 emitted=0 total_permutations=(2^{fsr.n - 1})!^2")
        return 0
    # a zero budget examines nothing, so --minimize has no candidate to select
    candidates = enumerate_equivalents(L_f, budget=budget, seed=args.seed) if budget != 0 else ()

    if args.minimize:
        best = select_minimal(candidates)
        print(f"L_g = {transition_to_delta(best.candidate.matrix)}")
        size = 1 << fsr.n
        print(f"T = {format_delta(size, best.candidate.transform.perm)}")
        r = best.reduction
        print(f"support_sum = {r.support_sum}")
        # whole numbers (see fib2gal's gate model): '.0f' prints them exactly
        print(f"area_um2 = {r.area_um2:.0f}")
        print(f"delay_ps = {r.delay_ps:.0f}")
        print(f"gates = {r.gate_count}")
        if args.emit in ("logic", "all"):
            print(_emit_logic(fsr.n, r.updates))
        return 0

    emitted = 0
    for cand in candidates:
        emitted += 1
        if args.emit in ("matrix", "all"):
            print(transition_to_delta(cand.matrix))
        if args.emit in ("logic", "all"):
            print(_emit_logic(fsr.n, reduce_candidate(cand.matrix).updates))
    _, examined = search_plan(fsr.n, budget)
    print(f"# examined={examined} emitted={emitted}")
    return 0


def cmd_gal2fib(args) -> int:
    fsr = load_fsr_file(args.input)
    L_g = transition(fsr)
    if args.max_free < 0:
        raise ValueError(f"max_free must be >= 0, got {args.max_free}")
    result = min_stage_fibonacci(L_g)
    size, fixed = 1 << result.l, result.partial.fixed
    # from a count: listing the free columns would take 2^l - (at most 2^n) entries
    free = size - len(fixed)
    out = sys.stdout
    out.write(f"l = {result.l}\nP = ")
    out.writelines(delta_pieces(size, fixed))
    out.write(f"\nT' = {format_delta(size, result.window_map)}\n")
    out.write(f"completions = 2^{free}\n")
    if args.all_completions and free <= args.max_free:
        for L_c in result.completions():  # each written before the next is made
            print(transition_to_delta(L_c))
    else:  # the least completion alone, written from P and the shift law a piece at a time
        out.writelines(delta_pieces(size, fixed, least=True))
        out.write("\n")
    return 0


def cmd_verify(args) -> int:
    A = load_matrix(args.a)
    B = load_matrix(args.b)
    result = equivalent(A, B)
    print("equivalent" if result else "not equivalent")
    # one C-level format per direction: the mapping has 2^(n+1) lines
    for line, mapping in (("A %s -> B %s\n", result.forward), ("B %s -> A %s\n", result.backward)):
        pairs = sorted(mapping.items())
        sys.stdout.write(line * len(pairs) % tuple(itertools.chain.from_iterable(pairs)))
    return 0 if result else 1


def cmd_simulate(args) -> int:
    L = load_matrix(args.input)
    init = args.init
    if set(init) <= {"0", "1"} and len(init) == L.n:
        x0 = encode_state([int(c) for c in init])
    else:
        try:
            x0 = int(init)
        except ValueError:
            raise ValueError(
                f"initial state {init!r} is neither a state index nor a string of {L.n} bits") from None
    # one C-level pass: a str per bit would take several times the bits' own tuple
    print(bytes(simulate(L, x0, args.steps)).translate(_BITS_TO_DIGITS).decode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsrkit",
        description="Transform feedback shift registers between Fibonacci and "
                    "Galois configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("to-matrix", help="print the transition matrix of an FSR file")
    p.add_argument("input")
    p.set_defaults(func=cmd_to_matrix)

    p = sub.add_parser("fib2gal", help="construct equivalent Galois FSRs")
    p.add_argument("input")
    p.add_argument("--budget", default="full",
                   help="max permutations to examine: an integer, or 'full' for "
                        "all of them, which is refused above 3 stages")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampled enumeration (required when the "
                        "budget truncates the search)")
    p.add_argument("--emit", choices=["matrix", "logic", "all"], default="matrix")
    p.add_argument("--minimize", action="store_true",
                   help="print only the support/cost-minimal candidate")
    p.add_argument("--perm", default=None,
                   help="apply one fixed permutation, delta format (d16[...])")
    p.set_defaults(func=cmd_fib2gal)

    p = sub.add_parser("gal2fib", help="minimal-stage Fibonacci reconstruction")
    p.add_argument("input")
    p.add_argument("--all-completions", action="store_true",
                   help="write all 2^k completions, one line of 2^l entries "
                        "each, if k, the number of free columns, is at most "
                        "MAX_FREE; otherwise the least one alone. The "
                        "`completions = 2^k` line comes first either way")
    p.add_argument("--max-free", type=int, default=20,
                   help="largest k for which --all-completions writes all "
                        "2^k completions; it applies only with "
                        "--all-completions (default: %(default)s)")
    p.set_defaults(func=cmd_gal2fib)

    p = sub.add_parser("verify", help="output-sequence equivalence oracle")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="print the output bit stream")
    p.add_argument("input")
    p.add_argument("--init", required=True, help="initial state: index or bit string")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser() once per process, on main's first call, not at import.

    Reuse is safe: parse_args returns a fresh namespace each call and leaves
    the parser as it found it, since no argument has a mutable default or an
    append or count action.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
