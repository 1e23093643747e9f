"""Galois to Fibonacci: simulation, output sequences, derived digraphs,
minimal-stage reconstruction, and the brute-force equivalence oracle."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .fib import _least_columns
from .stp import TransitionMatrix, output_bit


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

    @classmethod
    def _trusted(cls, preperiod: tuple[int, ...], period: tuple[int, ...]) -> "OutputSeq":
        """An OutputSeq from parts already in normalized form, such as
        _sequence_table's entries, without __post_init__'s checks."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "preperiod", preperiod)
        object.__setattr__(seq, "period", period)
        return seq

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
    p = len(pre)
    try:
        b = bytes(bits[p:])
    except (TypeError, ValueError):
        raise ValueError("sequence entries must be bits") from None
    d = (b + b).find(b, 1)  # primitive period, as OutputSeq checks it
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
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if L.n < 1:
        raise ValueError("a 0-stage matrix has no output bit")
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


def _sequence_table(L: TransitionMatrix) -> list[tuple[bytes, bytes]]:
    """Normalized (preperiod, period) of every state's output sequence, as
    0/1 bytes in state order (entry i is state i + 1).

    One pass over the functional graph of L: each state is walked once,
    then takes its sequence from its cycle or from its successor's. A
    cycle's rotations are sliced once and shared by the cycle's states.
    bytes cache their hash, so an entry hashes in O(1) however long it is.
    """
    size = 1 << L.n
    half = size >> 1
    cols = L.cols
    seq: list[tuple[bytes, bytes] | None] = [None] * (size + 1)
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
            rotations = [(b"", bb[k:k + d]) for k in range(d)]
            for k, x in enumerate(cycle):
                seq[x] = rotations[k % d]
        pre, per = seq[s]  # type: ignore[misc]
        for x in reversed(tail):
            bit = b"\1" if x <= half else b"\0"
            if not pre and per[-1:] == bit:
                per = bit + per[:-1]
            else:
                pre = bit + pre
            seq[x] = (pre, per)
    return seq[1:]  # type: ignore[return-value]


def all_output_sequences(L: TransitionMatrix) -> dict[int, OutputSeq]:
    """Output sequence of every initial state, one OutputSeq per distinct
    sequence."""
    table = _sequence_table(L)
    periods: dict[bytes, tuple[int, ...]] = {}
    view = {}
    for pre, per in set(table):
        if per not in periods:
            periods[per] = tuple(per)
        view[pre, per] = OutputSeq._trusted(tuple(pre), periods[per])
    return {i: view[e] for i, e in enumerate(table, start=1)}


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
    """Column sequence with free entries still to satisfy the shift law.

    `fixed` maps each fixed column (1-based) to its successor; every other
    column is free. At long windows almost every column is free, so only
    the fixed ones are stored and checked.
    """

    n: int
    fixed: dict[int, int] = field(hash=False)

    def __post_init__(self):
        size = 1 << self.n
        fixed = self.fixed
        if fixed and (min(fixed) < 1 or max(fixed) > size):
            bad = min(c for c in fixed if not 1 <= c <= size)
            raise ValueError(f"column {bad} out of range [1, {size}]")
        values = fixed.values()
        if fixed and (min(values) < 1 or max(values) > size):
            bad = min(c for c, t in fixed.items() if not 1 <= t <= size)
            raise ValueError(f"column value {fixed[bad]} out of range")

    @cached_property
    def cols(self) -> tuple[int | None, ...]:
        """All 2^n columns, None where free; built when first read."""
        cols: list[int | None] = [None] * (1 << self.n)
        for c, t in self.fixed.items():
            cols[c - 1] = t
        return tuple(cols)

    @cached_property
    def free_columns(self) -> tuple[int, ...]:
        """The free columns in increasing order; built when first read."""
        return tuple(itertools.filterfalse(self.fixed.__contains__, range(1, (1 << self.n) + 1)))


@dataclass(frozen=True)
class MinStageResult:
    """The window length, P, T' and P's completions. `free_columns` and
    `sequences` are views, built when first read: the CLI prints neither."""

    l: int
    partial: PartialTransition
    window_map: tuple[int, ...]  # Galois state index -> window index over 2^l
    completions: tuple[TransitionMatrix, ...]
    total_completions: int
    # the distinct output sequences, sorted, as (preperiod, period) 0/1 bytes
    _distinct: tuple[tuple[bytes, bytes], ...] = field(repr=False)

    @property
    def free_columns(self) -> tuple[int, ...]:
        return self.partial.free_columns

    @cached_property
    def sequences(self) -> tuple[OutputSeq, ...]:
        return tuple(OutputSeq._trusted(tuple(pre), tuple(per)) for pre, per in self._distinct)


_BITS_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _prefix(pre: bytes, per: bytes, length: int) -> bytes:
    """First `length` bits of the sequence pre per per per ..."""
    reps = max(0, -(-(length - len(pre)) // len(per)))
    return (pre + per * reps)[:length]


def min_stage_fibonacci(L_g: TransitionMatrix, max_free: int = 20) -> MinStageResult:
    """Smallest window length whose derived digraph is deterministic,
    plus the partial Fibonacci matrix and all its shift-law completions.

    Completions are enumerated exhaustively while the free-column count is
    at most max_free; beyond that only the lexicographically least
    completion is returned alongside the total count.
    """
    if max_free < 0:
        raise ValueError(f"max_free must be >= 0, got {max_free}")
    table = _sequence_table(L_g)
    seqs = sorted(set(table))  # bytes sort as the 0/1 tuples do
    # The sequences of all states are closed under shift, so when two
    # distinct ones share k > 0 leading bits, their shifts share k - 1: the
    # shared prefix lengths fill 0..K, and l-bit windows have unique
    # successors exactly when l > K. By Fine-Wilf, distinct sequences with
    # preperiods <= P and periods <= r differ within P + 2r bits, so K is
    # the longest prefix that neighbours share among the sorted prefixes.
    bound = max(len(pre) for pre, _ in seqs) + 2 * max(len(per) for _, per in seqs)
    keys = [int(_prefix(*e, bound).translate(_BITS_TO_DIGITS), 2) for e in seqs]
    ordered = sorted(keys)
    l = 1 + max((bound - (a ^ b).bit_length() for a, b in zip(ordered, ordered[1:])), default=0)

    # a window's index is 1 + its complemented bits, first bit most
    # significant: 1 + the complement of the key's top l bits
    ones, drop = (1 << l) - 1, bound - l
    window_of = {e: 1 + (ones ^ (key >> drop)) for e, key in zip(seqs, keys)}
    window_map = tuple(window_of[e] for e in table)
    # the window after T'(z) is T'(L_g(z)): one fixed column per distinct window
    fixed: dict[int, int] = {}
    for w, z in zip(window_map, L_g.cols):
        t = window_map[z - 1]
        if fixed.setdefault(w, t) != t:
            raise AssertionError(f"window {w} has two successors")
    partial = PartialTransition(l, fixed)
    # the least completion is base + 1 in every column; the fixed columns
    # must sit at base + 1 or base + 2, and overlay it
    cols = _least_columns(l)
    for w, t in fixed.items():
        if t - cols[w - 1] not in (0, 1):
            raise AssertionError("fixed column violates the Fibonacci law")
        cols[w - 1] = t
    # every completion column is base + 1 or base + 2, so each is in range
    free = (1 << l) - len(fixed)
    if free > max_free:  # only the least completion
        completions = [TransitionMatrix._trusted(l, tuple(cols))]
    else:  # the others raise some free columns to base + 2
        completions = []
        for picks in itertools.product((0, 1), repeat=free):
            filled = list(cols)
            for j, v in zip(partial.free_columns, picks):
                filled[j - 1] += v
            completions.append(TransitionMatrix._trusted(l, tuple(filled)))

    return MinStageResult(
        l=l,
        partial=partial,
        window_map=window_map,
        completions=tuple(completions),
        total_completions=1 << free,
        _distinct=tuple(seqs),
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
    seq_a = _sequence_table(A)
    seq_b = _sequence_table(B)
    # each sequence -> its smallest state index: the last write wins
    by_seq_a = dict(zip(reversed(seq_a), range(len(seq_a), 0, -1)))
    by_seq_b = dict(zip(reversed(seq_b), range(len(seq_b), 0, -1)))
    forward = dict(zip(range(1, len(seq_a) + 1), map(by_seq_b.get, seq_a)))
    backward = dict(zip(range(1, len(seq_b) + 1), map(by_seq_a.get, seq_b)))
    # the sets are equal iff every sequence has a partner both ways
    equal = None not in forward.values() and None not in backward.values()
    return EquivalenceResult(equal, forward, backward)
