"""Galois to Fibonacci: simulation, output sequences, derived digraphs,
minimal-stage reconstruction, and the brute-force equivalence oracle."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .stp import TransitionMatrix, encode_state, output_bit


# ---------------------------------------------------------------------------
# Output sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputSeq:
    """Eventually periodic bit sequence in normalized form.

    The period is primitive and the preperiod is minimal: its last bit (if
    any) differs from the bit one period earlier.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")
        try:
            pre, b = bytes(self.preperiod), bytes(self.period)
        except (TypeError, ValueError):
            raise ValueError("sequence entries must be bits") from None
        if (pre + b).translate(None, b"\0\1"):
            raise ValueError("sequence entries must be bits")
        # a word is primitive iff it occurs in its own square only at 0 and d
        if (b + b).find(b, 1) != len(b):
            raise ValueError("period is not primitive")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise ValueError("preperiod is not minimal")

    def bits(self, length: int) -> tuple[int, ...]:
        """First `length` bits of the unrolled sequence."""
        p, d = len(self.preperiod), len(self.period)
        reps = max(0, -(-(length - p) // d))
        return (self.preperiod + self.period * reps)[:length]


def normalize_sequence(pre: Sequence[int], per: Sequence[int]) -> OutputSeq:
    """Reduce to primitive period and minimal preperiod."""
    if not per:
        raise ValueError("period must be non-empty")
    bits = list(pre) + list(per)
    p, q = len(pre), len(per)
    cycle = bits[p:]
    d = q
    for k in range(1, q):
        if q % k == 0 and all(cycle[i] == cycle[i % k] for i in range(q)):
            d = k
            break
    while p > 0 and bits[p - 1] == bits[p - 1 + d]:
        p -= 1
    return OutputSeq(tuple(bits[:p]), tuple(bits[p:p + d]))


_SEQ_RE = re.compile(r"^\s*pre=([01]*)\s+per=([01]+)\s*$")


def format_sequence(seq: OutputSeq) -> str:
    pre = "".join(map(str, seq.preperiod))
    per = "".join(map(str, seq.period))
    return f"pre={pre} per={per}"


def parse_sequence(text: str) -> OutputSeq:
    m = _SEQ_RE.match(text)
    if m is None:
        raise ValueError(f"not a sequence literal: {text!r}")
    return normalize_sequence(
        [int(c) for c in m.group(1)], [int(c) for c in m.group(2)]
    )


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(L: TransitionMatrix, x0: int, steps: int) -> tuple[int, ...]:
    """Output bits from state x0; the bit at t=0 is the output of x0 itself."""
    if not 1 <= x0 <= (1 << L.n):
        raise ValueError(f"initial state {x0} out of range [1, {1 << L.n}]")
    out = []
    state = x0
    for _ in range(steps):
        out.append(output_bit(state, L.n))
        state = L.column(state)
    return tuple(out)


def output_sequence(L: TransitionMatrix, x0: int) -> OutputSeq:
    """Exact eventually-periodic decomposition via state-cycle detection."""
    seen: dict[int, int] = {}
    states = []
    state = x0
    while state not in seen:
        seen[state] = len(states)
        states.append(state)
        state = L.column(state)
    p = seen[state]
    bits = [output_bit(s, L.n) for s in states]
    return normalize_sequence(bits[:p], bits[p:])


def all_output_sequences(L: TransitionMatrix) -> dict[int, OutputSeq]:
    """Output sequence of every initial state, in one pass over the
    functional graph of L: each state is walked once, then takes its
    sequence from its cycle or from its successor's sequence."""
    size = 1 << L.n
    half = size >> 1
    cols = L.cols
    seq: list[OutputSeq | None] = [None] * (size + 1)
    # 1 + position on the current walk; stale marks sit on states that
    # already have a sequence, which stops a walk before the mark is read
    on_path = [0] * (size + 1)
    for start in range(1, size + 1):
        if seq[start] is not None:
            continue
        path = []
        s = start
        while seq[s] is None and not on_path[s]:
            path.append(s)
            on_path[s] = len(path)
            s = cols[s - 1]
        tail = path
        if seq[s] is None:  # the walk closed a new cycle at s
            c = on_path[s] - 1
            tail, cycle = path[:c], path[c:]
            b = bytes(1 if x <= half else 0 for x in cycle)
            bb = b + b
            d = bb.find(b, 1)  # primitive period of the cycle's output
            rotations = [OutputSeq((), tuple(bb[k:k + d])) for k in range(d)]
            for k, x in enumerate(cycle):
                seq[x] = rotations[k % d]
        nxt = seq[s]
        for x in reversed(tail):
            bit = 1 if x <= half else 0
            pre, per = nxt.preperiod, nxt.period  # type: ignore[union-attr]
            if not pre and per[-1] == bit:
                nxt = OutputSeq((), (bit,) + per[:-1])
            else:
                nxt = OutputSeq((bit,) + pre, per)
            seq[x] = nxt
    return {i: seq[i] for i in range(1, size + 1)}  # type: ignore[misc]


# ---------------------------------------------------------------------------
# Derived digraph and realizability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedDigraph:
    """Windows of l consecutive output bits, with consecutive-window edges."""

    l: int
    successors: dict[int, frozenset[int]] = field(hash=False)


def derived_digraph(seqs: Iterable[OutputSeq], l: int) -> DerivedDigraph:
    """Unroll each sequence one full period beyond window repetition."""
    if l < 1:
        raise ValueError("window length must be >= 1")
    mask = (1 << l) - 1
    succ: dict[int, set[int]] = {}
    for seq in seqs:
        p, d = len(seq.preperiod), len(seq.period)
        horizon = p + d  # windows repeat from t=p on, with period d
        bits = seq.bits(horizon + l)
        # window index = 1 + the window's complemented bits, first bit
        # most significant, as encode_state computes it
        m = 0
        for b in bits[:l]:
            m = (m << 1) | (1 - b)
        for b in bits[l:]:
            w = m + 1
            m = ((m << 1) | (1 - b)) & mask
            succ.setdefault(w, set()).add(m + 1)
    return DerivedDigraph(l, {w: frozenset(s) for w, s in succ.items()})


def realizable(G: DerivedDigraph) -> bool:
    """Fibonacci-realizability: every node has exactly one successor."""
    return all(len(s) == 1 for s in G.successors.values())


# ---------------------------------------------------------------------------
# Minimal-stage Fibonacci reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialTransition:
    """Column sequence with free entries (None) still to satisfy the shift law."""

    n: int
    cols: tuple[int | None, ...]

    def __post_init__(self):
        size = 1 << self.n
        if len(self.cols) != size:
            raise ValueError(f"expected {size} columns, got {len(self.cols)}")
        for c in self.cols:
            if c is not None and not 1 <= c <= size:
                raise ValueError(f"column value {c} out of range")


def _free_choices(j: int, l: int) -> tuple[int, int]:
    # legal values for column j under the shift law
    half = 1 << (l - 1)
    j0 = (j - 1) % half
    return (2 * j0 + 1, 2 * j0 + 2)


@dataclass(frozen=True)
class MinStageResult:
    l: int
    partial: PartialTransition
    window_map: tuple[int, ...]  # Galois state index -> window index over 2^l
    completions: tuple[TransitionMatrix, ...]
    free_columns: tuple[int, ...]
    total_completions: int
    sequences: tuple[OutputSeq, ...]


_BITS_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def min_stage_fibonacci(L_g: TransitionMatrix, max_free: int = 20) -> MinStageResult:
    """Smallest window length whose derived digraph is deterministic,
    plus the partial Fibonacci matrix and all its shift-law completions.

    Completions are enumerated exhaustively while the free-column count is
    at most max_free; beyond that only the lexicographically least
    completion is returned alongside the total count.
    """
    seq_of = all_output_sequences(L_g)
    seqs = sorted(set(seq_of.values()), key=lambda s: (s.preperiod, s.period))
    # The sequences of all states are closed under shift, so when two
    # distinct ones share k > 0 leading bits, their shifts share k - 1: the
    # shared prefix lengths fill 0..K, and l-bit windows have unique
    # successors exactly when l > K. By Fine-Wilf, distinct sequences with
    # preperiods <= P and periods <= r differ within P + 2r bits, so K is
    # the longest prefix that neighbours share among the sorted prefixes.
    bound = max(len(s.preperiod) for s in seqs) + 2 * max(len(s.period) for s in seqs)
    keys = sorted(int(bytes(s.bits(bound)).translate(_BITS_TO_DIGITS), 2) for s in seqs)
    l = 1 + max((bound - (a ^ b).bit_length() for a, b in zip(keys, keys[1:])), default=0)

    window_map = tuple(encode_state(s.bits(l)) for s in seq_of.values())
    # the window after T'(z) is T'(L_g(z))
    size = 1 << l
    cols: list[int | None] = [None] * size
    for w, z in zip(window_map, L_g.cols):
        t = window_map[z - 1]
        if cols[w - 1] not in (None, t):
            raise AssertionError(f"window {w} has two successors")
        cols[w - 1] = t
    partial = PartialTransition(l, tuple(cols))

    free = tuple(j for j in range(1, size + 1) if cols[j - 1] is None)
    for j in range(1, size + 1):
        if cols[j - 1] is not None and cols[j - 1] not in _free_choices(j, l):
            raise AssertionError("fixed column violates the Fibonacci law")
    total = 1 << len(free)
    completions = []
    if len(free) <= max_free:
        for picks in itertools.product(*(_free_choices(j, l) for j in free)):
            filled = list(cols)
            for j, v in zip(free, picks):
                filled[j - 1] = v
            completions.append(TransitionMatrix(l, tuple(filled)))  # type: ignore[arg-type]
    else:
        filled = list(cols)
        for j in free:
            filled[j - 1] = _free_choices(j, l)[0]
        completions.append(TransitionMatrix(l, tuple(filled)))  # type: ignore[arg-type]

    return MinStageResult(
        l=l,
        partial=partial,
        window_map=window_map,
        completions=tuple(completions),
        free_columns=free,
        total_completions=total,
        sequences=tuple(seqs),
    )


# ---------------------------------------------------------------------------
# Realizing sequences directly as a Galois FSR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaloisRealization:
    n: int
    matrix: TransitionMatrix
    initial_states: tuple[int, ...]  # aligned with the input sequences


def galois_from_sequences(seqs: Sequence[OutputSeq]) -> GaloisRealization:
    """A Galois FSR reproducing each sequence from a dedicated initial state.

    Each time step of each sequence gets a fresh state whose output half
    matches the bit; the cycle closes after preperiod+period steps and
    unassigned columns become self-loops.
    """
    if not seqs:
        raise ValueError("at least one sequence is required")
    lengths = [len(s.preperiod) + len(s.period) for s in seqs]
    ones = sum(b for s in seqs for b in s.bits(len(s.preperiod) + len(s.period)))
    zeros = sum(lengths) - ones
    n = 1
    # least n fitting the longest sequence; the per-half terms keep the
    # fresh-state assignment feasible
    while (1 << (n - 1)) < max(lengths) or (1 << (n - 1)) < ones or (1 << (n - 1)) < zeros:
        n += 1
    size = 1 << n
    half = size // 2
    next_one = 1
    next_zero = half + 1
    cols: list[int | None] = [None] * size
    initials = []
    for seq in seqs:
        p, d = len(seq.preperiod), len(seq.period)
        states = []
        for b in seq.bits(p + d):
            if b:
                state, next_one = next_one, next_one + 1
            else:
                state, next_zero = next_zero, next_zero + 1
            states.append(state)
        for t in range(len(states) - 1):
            cols[states[t] - 1] = states[t + 1]
        cols[states[-1] - 1] = states[p]
        initials.append(states[0])
    for k in range(size):
        if cols[k] is None:
            cols[k] = k + 1
    return GaloisRealization(
        n, TransitionMatrix(n, tuple(cols)), tuple(initials)  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# Equivalence oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    forward: dict[int, int | None] = field(hash=False)  # A state -> matching B state
    backward: dict[int, int | None] = field(hash=False)

    def __bool__(self) -> bool:
        return self.equal


def equivalent(A: TransitionMatrix, B: TransitionMatrix) -> EquivalenceResult:
    """Set equality of normalized output sequences over all initial states."""
    seq_a = all_output_sequences(A)
    seq_b = all_output_sequences(B)
    by_seq_b: dict[OutputSeq, int] = {}
    for j in sorted(seq_b):
        by_seq_b.setdefault(seq_b[j], j)
    by_seq_a: dict[OutputSeq, int] = {}
    for i in sorted(seq_a):
        by_seq_a.setdefault(seq_a[i], i)
    forward = {i: by_seq_b.get(s) for i, s in seq_a.items()}
    backward = {j: by_seq_a.get(s) for j, s in seq_b.items()}
    equal = by_seq_a.keys() == by_seq_b.keys()
    return EquivalenceResult(equal, forward, backward)
