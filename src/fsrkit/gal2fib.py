"""Galois to Fibonacci: simulation, output sequences, derived digraphs,
minimal-stage Fibonacci reconstruction, the minimal-stage Galois
realization, and equivalence, which compares the ids of the output
sequences of two registers."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _check_state(L: TransitionMatrix, x0: int) -> None:
    if not 1 <= x0 <= (1 << L.n):
        raise ValueError(f"initial state {x0} out of range [1, {1 << L.n}]")


def simulate(L: TransitionMatrix, x0: int, steps: int) -> tuple[int, ...]:
    """Output bits from state x0; the bit at t=0 is the output of x0 itself."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_state(L, x0)
    out = []
    state = x0
    for _ in range(steps):
        out.append(output_bit(state, L.n))
        state = L.column(state)
    return tuple(out)


def output_sequence(L: TransitionMatrix, x0: int) -> OutputSeq:
    """Exact eventually-periodic decomposition via state-cycle detection."""
    _check_state(L, x0)
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


def _scan_least_rotation(word: bytes) -> int:
    """Start of the lexicographically least rotation of word, in linear time.

    Two candidate starts i and j race along word + word: at the first of
    their next k + 1 bits that differ, the larger side's start and the k
    starts after it are out, since each of those is beaten by the rotation
    as far along the other side.
    """
    d = len(word)
    s = word + word
    i, j, k = 0, 1, 0
    while i < d and j < d and k < d:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


#: Most tied longest runs of 0s whose rotations _least_rotation compares
#: as bytes; past that it scans
_RUN_TIES = 8


def _least_rotation(word: bytes) -> int:
    """Start of the lexicographically least rotation of a 0/1 word, in
    linear time.

    The least rotation starts with a longest cyclic run of 0s, found by
    searching word + word for ever longer runs. When at most _RUN_TIES runs
    are that long, their rotations are compared as bytes; otherwise
    _scan_least_rotation decides. Only the scan is a Python loop.
    """
    if 0 not in word or 1 not in word:  # every rotation is the same
        return 0
    d = len(word)
    ww = word + word
    # the longest run of 0s: a 1 bounds it below d; double, then bisect
    lo, hi = 1, 2
    while b"\0" * hi in ww:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if b"\0" * mid in ww:
            lo = mid
        else:
            hi = mid
    run = b"\0" * lo
    # a 1 precedes each run this long, so no two overlap
    ties = ww.count(run, 0, d + lo - 1)
    if ties > _RUN_TIES:
        return _scan_least_rotation(word)
    starts = [ww.find(run)]
    for _ in range(ties - 1):
        starts.append(ww.find(run, starts[-1] + lo))
    return min(starts, key=lambda c: ww[c:c + d])


T = TypeVar("T")


class _SequenceIds:
    """Integer ids for eventually periodic output sequences: two ids are
    equal exactly when their sequences are.

    A cycle's primitive output word is stored once, as its least rotation,
    and its d rotations get the consecutive ids base .. base + d - 1, where
    rotation k starts at word[k]. Every sequence is its first bit followed
    by its successor's sequence, the one a step later, so every id has a
    step, 2 * successor id + first bit, and `by_step` inverts `steps`. A
    state off the cycles looks its step up: a state whose bit is the one
    its successor's rotation is preceded by finds the rotation one step
    earlier; any other step not seen yet gets the next id, so that id is
    larger than its successor's.
    """

    def __init__(self):
        self.cycles: dict[bytes, int] = {}  # least rotation -> base id
        self.steps: list[int] = []  # id -> 2 * successor id + first bit
        self.by_step: dict[int, int] = {}  # step -> id

    def cycle(self, word: bytes) -> list[int]:
        """Ids of the sequences that start at word[0], word[1], ... on a
        cycle whose states output word, one per rotation of its period."""
        d = (word + word).find(word, 1)  # primitive period of the cycle's output
        r = _least_rotation(word[:d])
        least = word[r:d] + word[:r]
        base = self.cycles.get(least)
        if base is None:
            base = self.cycles[least] = len(self.steps)
            # rotation k's successor is rotation k + 1, and the last's is the first
            steps = list(map(operator.add, range(2 * base + 2, 2 * (base + d), 2), least))
            steps.append(2 * base + least[-1])
            self.steps += steps
            self.by_step.update(zip(steps, range(base, base + d)))
        # word[j] starts rotation (j - r) mod d
        return list(range(base + d - r, base + d)) + list(range(base, base + d - r))

    def extend(self, bit: int, successor: int) -> int:
        """Id of the sequence `bit` followed by the successor's sequence."""
        step = (successor << 1) | bit
        i = self.by_step.get(step)
        if i is None:
            i = self.by_step[step] = len(self.steps)
            self.steps.append(step)
        return i

    def fold(self, rotations: Callable[[bytes], list[T]], prepend: Callable[[int, T], T]) -> list[T]:
        """One value per id, in id order. A cycle's ids take
        rotations(least rotation), one value per rotation; every other id
        takes prepend(first bit, its successor's value), which is already
        there, since the successor's id is smaller."""
        steps = self.steps
        values: list[T] = []

        def off_cycles(stop: int) -> None:
            for step in steps[len(values):stop]:
                values.append(prepend(step & 1, values[step >> 1]))

        for word, base in self.cycles.items():  # in base order
            off_cycles(base)
            values += rotations(word)
        off_cycles(len(steps))
        return values


def _sequence_table(L: TransitionMatrix, ids: _SequenceIds) -> list[int]:
    """The id in ids of every state's output sequence, in state order
    (entry i is state i + 1).

    One pass over the functional graph of L: each state is walked once,
    then takes its id from its cycle or from its own bit and its
    successor's id.
    """
    size = 1 << L.n
    nxt = (0,) + L.cols  # nxt[s] is state s's successor
    # out[s] is state s's output bit: 1 on the first half of the states
    out = bytes(1) + bytes((1,)) * (size >> 1) + bytes(size - (size >> 1))
    # an id, or -start while the walk from start is on the state
    seq: list[int | None] = [None] * (size + 1)
    extend = ids.extend
    for start in range(1, size + 1):
        if seq[start] is not None:
            continue
        path = []
        s = start
        while seq[s] is None:
            path.append(s)
            seq[s] = -start
            s = nxt[s]
        if seq[s] == -start:  # the walk closed a new cycle at s
            c = path.index(s)
            cycle = path[c:]
            del path[c:]
            ring = ids.cycle(bytes(map(out.__getitem__, cycle)))
            for x, i in zip(cycle, itertools.cycle(ring)):
                seq[x] = i
        i = seq[s]
        for x in reversed(path):
            i = seq[x] = extend(out[x], i)
    return seq[1:]  # type: ignore[return-value]


def _output_seqs(ids: _SequenceIds) -> list[OutputSeq]:
    """The OutputSeq of every id, in id order. An id off the cycles shares
    its successor's period tuple."""
    def rotations(word: bytes) -> list[OutputSeq]:
        return [OutputSeq._trusted((), tuple(word[k:] + word[:k])) for k in range(len(word))]

    return ids.fold(rotations, lambda bit, seq: OutputSeq._trusted((bit,) + seq.preperiod, seq.period))


def all_output_sequences(L: TransitionMatrix) -> dict[int, OutputSeq]:
    """Output sequence of every initial state, one OutputSeq per distinct
    sequence."""
    ids = _SequenceIds()
    table = _sequence_table(L, ids)
    return dict(zip(range(1, len(table) + 1), map(_output_seqs(ids).__getitem__, table)))


# ---------------------------------------------------------------------------
# Derived digraph and realizability
# ---------------------------------------------------------------------------

def derived_digraph(seqs: Iterable[OutputSeq], l: int) -> dict[int, frozenset[int]]:
    """Each window of l consecutive output bits, mapped to the windows
    that follow it; each sequence is unrolled one full period beyond window
    repetition."""
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
    return {w: frozenset(s) for w, s in succ.items()}


def realizable(successors: dict[int, frozenset[int]]) -> bool:
    """Fibonacci-realizability: every window has exactly one successor."""
    return all(len(s) == 1 for s in successors.values())


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
    """The window length, P and T'. `total_completions` and `sequences` are
    views, built when first read, and `completions()` makes P's shift-law
    completions one at a time. The CLI reads no view: --all-completions
    writes each completion as `completions()` makes it."""

    l: int
    partial: PartialTransition
    window_map: tuple[int, ...]  # Galois state index -> window index over 2^l
    # the ids of the distinct output sequences
    _ids: _SequenceIds = field(repr=False, compare=False)

    @cached_property
    def total_completions(self) -> int:
        """The count of P's shift-law completions, 2^(free columns)."""
        return 1 << ((1 << self.l) - len(self.partial.fixed))

    @cached_property
    def sequences(self) -> tuple[OutputSeq, ...]:
        """The distinct output sequences, sorted."""
        return tuple(sorted(_output_seqs(self._ids), key=operator.attrgetter("preperiod", "period")))

    def completions(self) -> Iterator[TransitionMatrix]:
        """P's shift-law completions in lexicographic order, the least one
        first, each made when the one before it is consumed, so a caller
        holds one at a time."""
        l = self.l
        # the least completion is base + 1 in every column, with the fixed
        # columns laid over it; every column is base + 1 or base + 2, so
        # each is in range
        cols = _least_columns(l)
        for w, t in self.partial.fixed.items():
            cols[w - 1] = t
        yield TransitionMatrix._trusted(l, tuple(cols))
        # the others raise some free columns to base + 2
        free = self.partial.free_columns
        picks = itertools.product((0, 1), repeat=len(free))
        next(picks)  # none raised: the least, above
        for pick in picks:
            filled = list(cols)
            for j, v in zip(free, pick):
                filled[j - 1] += v
            yield TransitionMatrix._trusted(l, tuple(filled))


_BITS_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _prefix_keys(ids: _SequenceIds, bound: int) -> list[int]:
    """For each id in id order, the first `bound` bits of its sequence as an
    int, first bit most significant.

    A cycle's keys are windows of its least rotation repeated; every other
    id's key is its first bit followed by its successor's key, less its last
    bit.
    """
    def rotations(word: bytes) -> list[int]:
        d = len(word)
        reps = -(-(bound + d - 1) // d)  # rotation d - 1 reads bound bits too
        digits = (word * reps).translate(_BITS_TO_DIGITS)
        return [int(digits[k:k + bound], 2) for k in range(d)]

    top = bound - 1
    return ids.fold(rotations, lambda bit, key: (bit << top) | (key >> 1))


def _window_length(ids: _SequenceIds, bound: int) -> tuple[int, list[int]]:
    """The least window length l, capped at bound + 1, and
    _prefix_keys(ids, bound).

    The sequences of all states are closed under shift, so when two
    distinct ones share k > 0 leading bits, their shifts share k - 1: the
    shared prefix lengths fill 0..K, and l-bit windows have unique
    successors exactly when l > K. K is the longest prefix that neighbours
    share among the sorted keys; keys of `bound` bits give
    min(K + 1, bound + 1).
    """
    keys = _prefix_keys(ids, bound)
    ordered = sorted(keys)
    l = 1 + max((bound - (a ^ b).bit_length() for a, b in zip(ordered, ordered[1:])), default=0)
    return l, keys


#: Longest window min_stage_fibonacci builds a register for: each
#: completion has 2^l columns. The longest measured to print, from a
#: 16-stage register, is 26.
MAX_WINDOW = 26


def min_stage_fibonacci(L_g: TransitionMatrix) -> MinStageResult:
    """Smallest window length whose derived digraph is deterministic,
    plus the partial Fibonacci matrix and the count of its shift-law
    completions, which `completions()` makes one at a time.

    Nothing of size 2^l is built until a view or a completion is read, and
    a window longer than MAX_WINDOW raises ValueError.
    """
    ids = _SequenceIds()
    table = _sequence_table(L_g, ids)
    # keys of MAX_WINDOW + 1 bits settle any l up to MAX_WINDOW
    bound = MAX_WINDOW + 1
    l, keys = _window_length(ids, bound)
    if l > MAX_WINDOW:
        # keys of `bound` bits settle any l <= bound; to name the l refused,
        # double them until they do, which ends because distinct sequences
        # differ within finitely many bits
        while l > bound:
            bound *= 2
            l, _ = _window_length(ids, bound)
        raise ValueError(f"window length {l} exceeds the limit MAX_WINDOW = {MAX_WINDOW}")

    # a window's index is 1 + its complemented bits, first bit most
    # significant: 1 + the complement of the key's top l bits
    ones, drop = (1 << l) - 1, bound - l
    window_of = [1 + (ones ^ (key >> drop)) for key in keys]
    window_map = tuple(map(window_of.__getitem__, table))
    # the window after T'(z) is T'(L_g(z)): one fixed column per distinct window
    fixed: dict[int, int] = {}
    for w, z in zip(window_map, L_g.cols):
        t = window_map[z - 1]
        if fixed.setdefault(w, t) != t:
            raise AssertionError(f"window {w} has two successors")
    partial = PartialTransition(l, fixed)
    # a fixed column must sit at base + 1 or base + 2, base = 2 * ((w - 1) mod 2^(l-1))
    low = (1 << (l - 1)) - 1
    for w, t in fixed.items():
        if (t - 1) >> 1 != (w - 1) & low:
            raise AssertionError("fixed column violates the Fibonacci law")
    return MinStageResult(
        l=l,
        partial=partial,
        window_map=window_map,
        _ids=ids,
    )


# ---------------------------------------------------------------------------
# Minimal-stage Galois realization
# ---------------------------------------------------------------------------

def min_stage_galois(L: TransitionMatrix) -> tuple[TransitionMatrix, tuple[int, ...]]:
    """The fewest-stage register with the same output sequences as L, and
    the state of it that each state of L maps to (entry i is state i + 1's).

    Distinct sequences need distinct states, whose output is their first
    bit, so 2^(n-1) must cover the sequences that start with 1 and those
    that start with 0. The quotient of L by "same sequence" meets that
    bound: its states are the ids of _sequence_table, and an id's successor
    is the one in its step. Ids that start with 1 take states 1, 2, ... and
    the others half + 1, half + 2, ..., in id order. A state left over
    copies the first column of its half, and so outputs that sequence too.
    """
    ids = _SequenceIds()
    table = _sequence_table(L, ids)
    steps = ids.steps
    ones = sum(step & 1 for step in steps)
    zeros = len(steps) - ones
    n = 1 + (max(ones, zeros) - 1).bit_length()
    half = 1 << (n - 1)
    free = (itertools.count(half + 1), itertools.count(1))  # by output bit
    state = [next(free[step & 1]) for step in steps]
    cols = [0] * (2 * half)
    for s, step in zip(state, steps):
        cols[s - 1] = state[step >> 1]
    cols[ones:half] = [cols[0]] * (half - ones)
    cols[half + zeros:] = [cols[half]] * (half - zeros)
    return TransitionMatrix._trusted(n, tuple(cols)), tuple(map(state.__getitem__, table))


# ---------------------------------------------------------------------------
# Equivalence
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
    ids = _SequenceIds()  # shared: a sequence of A and of B gets one id
    seq_a = _sequence_table(A, ids)
    seq_b = _sequence_table(B, ids)
    # each sequence -> its smallest state index: the last write wins
    by_seq_a = dict(zip(reversed(seq_a), range(len(seq_a), 0, -1)))
    by_seq_b = dict(zip(reversed(seq_b), range(len(seq_b), 0, -1)))
    forward = dict(zip(range(1, len(seq_a) + 1), map(by_seq_b.get, seq_a)))
    backward = dict(zip(range(1, len(seq_b) + 1), map(by_seq_a.get, seq_b)))
    # the sets are equal iff every sequence has a partner both ways
    equal = None not in forward.values() and None not in backward.values()
    return EquivalenceResult(equal, forward, backward)
