import importlib.util
import itertools
import os
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from fsrkit import (
    OutputSeq,
    PartialTransition,
    PermutationTransform,
    StructureMatrix,
    TransitionMatrix,
    all_output_sequences,
    conjugate,
    derived_digraph,
    equivalent,
    fib_transition,
    galois_transition,
    is_fibonacci,
    min_stage_fibonacci,
    min_stage_galois,
    normalize_sequence,
    output_sequence,
    realizable,
    simulate,
)

from fsrkit.cli import parse_fsr_file
from fsrkit.fib import _shift_bases
from fsrkit import gal2fib
from fsrkit.gal2fib import (
    MAX_WINDOW, _least_rotation, _output_seqs, _prefix_keys, _scan_least_rotation,
    _sequence_table, _SequenceIds, _window_length,
)
from fsrkit.stp import delta_pieces, encode_state, format_delta

from conftest import (
    COUNTER5,
    LF4_COLS,
    LG3_SHRINKABLE_COLS,
    LG3_TWO_ATTRACTORS_COLS,
    LG4_COLS,
    LONG_WINDOW_COLS,
    record_matrix_builds,
    ref_format_partial,
    ref_prefix_keys,
    sparse_galois_text,
)


@pytest.fixture
def lg3a() -> TransitionMatrix:
    return TransitionMatrix(3, LG3_SHRINKABLE_COLS)


@pytest.fixture
def lg3b() -> TransitionMatrix:
    return TransitionMatrix(3, LG3_TWO_ATTRACTORS_COLS)


def random_transition(rng, n):
    size = 1 << n
    return TransitionMatrix(n, tuple(rng.randint(1, size) for _ in range(size)))


def maps(max_n):
    """Hypothesis strategy: any map of 1..max_n stages."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.integers(1, 1 << n), min_size=1 << n, max_size=1 << n)
        .map(lambda cols: TransitionMatrix(n, tuple(cols))))


# ---------------------------------------------------------------------------
# Reference oracles: one cycle walk per state, slice-encoded windows and the
# divisor-loop primitivity test
# ---------------------------------------------------------------------------

def all_output_sequences_oracle(L):
    return {i: output_sequence(L, i) for i in range(1, (1 << L.n) + 1)}


def equivalent_oracle(A, B):
    """Equality of the OutputSeq sets; each state maps to the smallest
    state of the other matrix with the same sequence, or None."""
    seq_a = all_output_sequences_oracle(A)
    seq_b = all_output_sequences_oracle(B)
    by_seq_b = {}
    for j in sorted(seq_b):
        by_seq_b.setdefault(seq_b[j], j)
    by_seq_a = {}
    for i in sorted(seq_a):
        by_seq_a.setdefault(seq_a[i], i)
    forward = {i: by_seq_b.get(s) for i, s in seq_a.items()}
    backward = {j: by_seq_a.get(s) for j, s in seq_b.items()}
    return by_seq_a.keys() == by_seq_b.keys(), forward, backward


def assert_matches_equivalent_oracle(A, B):
    got = equivalent(A, B)
    assert (got.equal, got.forward, got.backward) == equivalent_oracle(A, B)
    return got


def random_conjugate(rng, L):
    """L relabeled by a random permutation that keeps each output half."""
    half = 1 << (L.n - 1)
    top = list(range(1, half + 1))
    bottom = list(range(half + 1, 2 * half + 1))
    rng.shuffle(top)
    rng.shuffle(bottom)
    return conjugate(L, PermutationTransform(L.n, tuple(top + bottom)))


def derived_successors_oracle(seqs, l):
    succ = {}
    for seq in seqs:
        p, d = len(seq.preperiod), len(seq.period)
        horizon = p + d
        bits = seq.bits(horizon + l)
        windows = [encode_state(bits[t:t + l]) for t in range(horizon + 1)]
        for t in range(horizon):
            succ.setdefault(windows[t], set()).add(windows[t + 1])
    return {w: frozenset(s) for w, s in succ.items()}


def is_primitive_oracle(period):
    d = len(period)
    return not any(
        d % k == 0 and all(period[i] == period[i % k] for i in range(d))
        for k in range(1, d)
    )


def min_stage_oracle(L, limit):
    """The window search: the least l from ceil(log2 r) whose derived
    digraph is deterministic, P read off its edges, T' by simulation, and
    the shift-law completions of P (only the least beyond `limit` free
    columns)."""
    seqs = set(all_output_sequences(L).values())
    r = max(len(s.period) for s in seqs)
    bound = max(len(s.preperiod) for s in seqs) + 2 * r
    l = max(1, (r - 1).bit_length())
    while not realizable(G := derived_digraph(seqs, l)):
        l += 1
        assert l <= bound
    cols = [None] * (1 << l)
    for w, (t,) in G.items():
        cols[w - 1] = t
    window_map = tuple(encode_state(simulate(L, z, l)) for z in range(1, (1 << L.n) + 1))
    free = tuple(j for j, c in enumerate(cols, start=1) if c is None)
    half = 1 << (l - 1)
    choices = [(2 * ((j - 1) % half) + 1, 2 * ((j - 1) % half) + 2) for j in free]
    if len(free) <= limit:
        picks = itertools.product(*choices)
    else:
        picks = [tuple(c[0] for c in choices)]
    completions = []
    for pick in picks:
        filled = list(cols)
        for j, v in zip(free, pick):
            filled[j - 1] = v
        completions.append(tuple(filled))
    return l, tuple(cols), window_map, free, completions


def assert_matches_search(L, limit=6):
    got = min_stage_fibonacci(L)
    l, cols, window_map, free, completions = min_stage_oracle(L, limit)
    assert got.l == l
    assert got.partial.cols == cols
    assert got.window_map == window_map
    assert got.partial.free_columns == free
    assert [c.cols for c in itertools.islice(got.completions(), len(completions))] == completions
    assert got.total_completions == 1 << len(free)
    # the distinct sequences, validated one state at a time, in sorted order
    seqs = set(all_output_sequences_oracle(L).values())
    assert got.sequences == tuple(sorted(seqs, key=lambda s: (s.preperiod, s.period)))


def least_completion_oracle(L, window_map, l, limit):
    """P, its free columns and its completions, one column at a time: the
    fixed columns from the (window, successor) pairs, then every column
    checked against the shift law and the free ones set to base + 1."""
    size = 1 << l
    cols = [None] * size
    for w, z in zip(window_map, L.cols):
        t = window_map[z - 1]
        assert cols[w - 1] in (None, t)
        cols[w - 1] = t
    partial = tuple(cols)
    free = tuple(j for j in range(1, size + 1) if cols[j - 1] is None)
    for u, b in enumerate(_shift_bases(l)):
        if cols[u] is None:
            cols[u] = b + 1
        else:
            assert cols[u] - b in (1, 2)
    raises = itertools.product((0, 1), repeat=len(free)) if len(free) <= limit else [()]
    completions = []
    for picks in raises:
        filled = list(cols)
        for j, v in zip(free, picks):
            filled[j - 1] += v
        completions.append(tuple(filled))
    return partial, free, completions


def sparse_galois(rng, n):
    """A Galois register whose coordinates XOR 2..4 random monomials of degree 1..3."""
    return galois_transition(parse_fsr_file(sparse_galois_text(rng, n)))


def differential_matrices():
    """Seeded random maps, pure-cycle permutations and constant maps for
    n = 1..8, plus the fixtures."""
    rng = random.Random(2024)
    out = [
        TransitionMatrix(3, LG3_SHRINKABLE_COLS),
        TransitionMatrix(3, LG3_TWO_ATTRACTORS_COLS),
        TransitionMatrix(4, LF4_COLS),
        TransitionMatrix(4, LG4_COLS),
    ]
    for n in range(1, 9):
        size = 1 << n
        reps = 20 if n <= 5 else 3
        for _ in range(reps):
            out.append(random_transition(rng, n))
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            out.append(TransitionMatrix(n, tuple(perm)))
        out.append(TransitionMatrix(n, (rng.randint(1, size),) * size))
    return out


class TestSimulate:
    def test_reference_preperiodic_stream(self, lg3b):
        assert simulate(lg3b, 2, 5) == (1, 1, 0, 0, 0)

    def test_reference_periodic_stream(self, lg3b):
        assert simulate(lg3b, 1, 5) == (1, 0, 1, 0, 1)

    def test_zero_steps(self, lg3b):
        assert simulate(lg3b, 3, 0) == ()

    def test_rejects_negative_steps(self, lg3b):
        with pytest.raises(ValueError, match="steps"):
            simulate(lg3b, 3, -4)

    def test_rejects_bad_state(self, lg3b):
        with pytest.raises(ValueError):
            simulate(lg3b, 9, 1)


class TestOutputSeq:
    def test_normalization_absorbs_constant_prefix(self):
        assert normalize_sequence([0], [0]) == OutputSeq((), (0,))

    def test_primitive_period(self):
        assert normalize_sequence([], [1, 0, 1, 0]) == OutputSeq((), (1, 0))

    def test_preperiod_kept_when_needed(self):
        assert normalize_sequence([1], [0]) == OutputSeq((1,), (0,))

    def test_rotation_absorbed_into_phase(self):
        s = normalize_sequence([1, 0, 0], [1, 0, 0, 1, 0, 0])
        assert s == OutputSeq((), (1, 0, 0))

    def test_partial_rotation_keeps_shorter_preperiod(self):
        s = normalize_sequence([1, 0, 0], [0, 1, 0, 0, 1, 0])
        assert s == OutputSeq((1, 0), (0, 0, 1))

    def test_normalize_agrees_with_divisor_loop(self):
        for q in range(1, 7):
            for per in itertools.product((0, 1), repeat=q):
                for p in range(4):
                    for pre in itertools.product((0, 1), repeat=p):
                        s = normalize_sequence(pre, per)
                        assert is_primitive_oracle(s.period)
                        assert s.bits(p + 2 * q) == (pre + per * 2)

    @pytest.mark.parametrize("pre, per", [
        ([], [2]), ([], [2, 2]), ([], [0.5]), ([], ["1"]), ([], [256]),
        ([], [-1, 0]), ([2], [0]), ([], "01"),
    ])
    def test_normalize_rejects_non_bits(self, pre, per):
        with pytest.raises(ValueError, match="bits"):
            normalize_sequence(pre, per)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            OutputSeq((), (1, 0, 1, 0))
        with pytest.raises(ValueError):
            OutputSeq((0,), (0,))
        with pytest.raises(ValueError):
            OutputSeq((), ())
        with pytest.raises(ValueError, match="^period must be non-empty$"):
            normalize_sequence((), ())

    @pytest.mark.parametrize("pre, per", [((), ("a",)), ((), (256,)), ((-1,), (0,))])
    def test_rejects_entries_that_are_not_bytes(self, pre, per):
        with pytest.raises(ValueError, match="^sequence entries must be bits$"):
            OutputSeq(pre, per)

    def test_bits_unrolls(self):
        s = OutputSeq((1, 1), (0,))
        assert s.bits(6) == (1, 1, 0, 0, 0, 0)
        assert s.bits(0) == ()

    def test_bits_refuses_a_negative_length(self):
        # the slice [:-1] used to return all but the last unrolled bit
        with pytest.raises(ValueError, match="^length must be >= 0, got -1$"):
            OutputSeq((1, 0), (1,)).bits(-1)


class TestOutputSequence:
    def test_constant_zero_tail(self, lg3a):
        assert output_sequence(lg3a, 5) == OutputSeq((), (0,))

    def test_full_cycle(self, lf4, fib4_transition):
        s = output_sequence(fib4_transition, 1)
        assert s.preperiod == ()
        assert len(s.period) == 16

    def test_period_two(self, lg3b):
        assert output_sequence(lg3b, 1) == OutputSeq((), (1, 0))

    @pytest.mark.parametrize("x0", [0, 9, -1])
    def test_rejects_state_out_of_range(self, x0):
        # 0 used to read the last column and 9 to raise IndexError
        L = TransitionMatrix(3, (2, 4, 5, 7, 1, 3, 6, 8))
        with pytest.raises(ValueError, match=rf"^initial state {x0} out of range \[1, 8\]$"):
            output_sequence(L, x0)

    def test_agrees_with_simulation(self, lg3b):
        for x0 in range(1, 9):
            s = output_sequence(lg3b, x0)
            p, d = len(s.preperiod), len(s.period)
            assert simulate(lg3b, x0, p + 3 * d) == s.bits(p + 3 * d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cycle_detection_random(self, n):
        rng = random.Random(10 + n)
        for _ in range(50):
            L = random_transition(rng, n)
            for x0 in range(1, (1 << n) + 1):
                s = output_sequence(L, x0)
                p, d = len(s.preperiod), len(s.period)
                assert simulate(L, x0, p + 3 * d) == s.bits(p + 3 * d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_output_period_divides_state_period(self, n):
        rng = random.Random(20 + n)
        for _ in range(40):
            L = random_transition(rng, n)
            for x0 in range(1, (1 << n) + 1):
                # state period by direct cycle walk
                seen, state = {}, x0
                while state not in seen:
                    seen[state] = len(seen)
                    state = L.column(state)
                state_period = len(seen) - seen[state]
                d = len(output_sequence(L, x0).period)
                assert state_period % d == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fibonacci_output_period_equals_state_period(self, n):
        rng = random.Random(30 + n)
        for _ in range(40):
            rows = tuple(rng.choice((1, 2)) for _ in range(1 << n))
            L = fib_transition(StructureMatrix(n, rows))
            for x0 in range(1, (1 << n) + 1):
                seen, state = {}, x0
                while state not in seen:
                    seen[state] = len(seen)
                    state = L.column(state)
                state_period = len(seen) - seen[state]
                assert len(output_sequence(L, x0).period) == state_period


class TestAllOutputSequences:
    def test_matches_per_state_oracle(self):
        for L in differential_matrices():
            got = all_output_sequences(L)
            assert got == all_output_sequences_oracle(L)
            assert list(got) == list(range(1, (1 << L.n) + 1))

    def test_primitivity_check_matches_divisor_loop(self):
        for d in range(1, 13):
            for period in itertools.product((0, 1), repeat=d):
                if is_primitive_oracle(period):
                    assert OutputSeq((), period).period == period
                else:
                    with pytest.raises(ValueError, match="primitive"):
                        OutputSeq((), period)


def load_bench_model():
    """The benchmark's independent register model, loaded from its path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "model.py"
    spec = importlib.util.spec_from_file_location("bench_model", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# random words, and words with many equally long runs of 0s, more than
# _least_rotation compares directly
rotation_words = st.one_of(
    st.lists(st.integers(0, 1), min_size=1, max_size=40).map(bytes),
    st.lists(st.sampled_from([b"\0\1", b"\0\1\1", b"\0\0\1", b"\1"]), min_size=1, max_size=30)
    .map(b"".join),
)


class TestLeastRotation:
    model = load_bench_model()

    @seed(8)
    @settings(deadline=None, max_examples=400)
    @given(rotation_words)
    @pytest.mark.parametrize("least_rotation", [_least_rotation, _scan_least_rotation])
    def test_matches_model_and_brute_force(self, least_rotation, word):
        r = least_rotation(word)
        assert 0 <= r < len(word)
        got = word[r:] + word[:r]
        digits = "".join(map(str, word))
        assert "".join(map(str, got)) == self.model.least_rotation(digits)
        assert got == min(word[k:] + word[:k] for k in range(len(word)))

    def test_scans_only_past_the_ties_it_compares(self, monkeypatch):
        scanned = []
        monkeypatch.setattr(gal2fib, "_scan_least_rotation", scanned.append)
        few = b"\0\1" * (gal2fib._RUN_TIES - 1) + b"\0\1\1"
        assert _least_rotation(few) == 0
        assert scanned == []
        many = b"\1" + b"\0\1" * gal2fib._RUN_TIES + b"\0\1\1"
        _least_rotation(many)
        assert scanned == [many]


def random_map_with_tails(rng, n):
    """A random map whose states are mostly off its cycles, or a random
    permutation with a few columns redirected, which leaves long tails."""
    size = 1 << n
    if rng.random() < 0.5:
        return random_transition(rng, n)
    cols = list(range(1, size + 1))
    rng.shuffle(cols)
    for _ in range(rng.randint(1, 3)):
        cols[rng.randrange(size)] = rng.randint(1, size)
    return TransitionMatrix(n, tuple(cols))


def state_sequences_oracle(L):
    """output_sequence of every state in order."""
    return list(all_output_sequences_oracle(L).values())


class TestSequenceIds:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_ids_exactly_for_equal_sequences(self, n):
        rng = random.Random(40 + n)
        for _ in range(12 if n <= 5 else 3):
            A, B = random_map_with_tails(rng, n), random_map_with_tails(rng, n)
            ids = _SequenceIds()  # shared, as equivalent shares it
            got = _sequence_table(A, ids) + _sequence_table(B, ids)
            want = state_sequences_oracle(A) + state_sequences_oracle(B)
            first_id = {}
            for i, s in zip(got, want):
                assert first_id.setdefault(s, i) == i
            assert len(set(got)) == len(first_id) == len(ids.steps)
            # every id decodes to its sequence
            seqs = _output_seqs(ids)
            for i, s in zip(got, want):
                assert seqs[i] == s

    def test_successor_ids_come_first(self):
        rng = random.Random(48)
        for n in range(1, 8):
            ids = _SequenceIds()
            _sequence_table(random_map_with_tails(rng, n), ids)
            cycle_ids = {b + k for w, b in ids.cycles.items() for k in range(len(w))}
            for i, step in enumerate(ids.steps):
                assert ids.by_step[step] == i
                assert i in cycle_ids or step >> 1 < i

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fold_reaches_successors_first(self, n):
        # counting the prepends from a cycle's 0 gives each id its preperiod
        # length, so prepend sees every successor's final value
        rng = random.Random(60 + n)
        for _ in range(12 if n <= 5 else 3):
            L = random_map_with_tails(rng, n)
            ids = _SequenceIds()
            table = _sequence_table(L, ids)
            depth = ids.fold(lambda word: [0] * len(word), lambda bit, v: v + 1)
            assert len(depth) == len(ids.steps)
            for i, s in zip(table, state_sequences_oracle(L)):
                assert depth[i] == len(s.preperiod)

    def test_zero_stage_register(self):
        # its one state has no output bit, so the matrix is refused
        with pytest.raises(ValueError, match="^a 0-stage matrix has no output bit$"):
            _sequence_table(TransitionMatrix(0, (1,)), _SequenceIds())


class TestEquivalentAtFourteenStages:
    """One table is linear in 2^n: a random permutation at n = 14 has cycles
    of thousands of states, whose rotations were once stored one by one."""

    def test_random_permutation_memory(self):
        rng = random.Random(14)
        cols = list(range(1, (1 << 14) + 1))
        rng.shuffle(cols)
        L = TransitionMatrix(14, tuple(cols))
        tracemalloc.start()
        try:
            assert equivalent(L, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestDerivedDigraph:
    def test_matches_slice_encoding_oracle(self):
        rng = random.Random(7)
        for n in range(1, 7):
            for _ in range(4):
                seqs = set(all_output_sequences(random_transition(rng, n)).values())
                for l in range(1, 13):
                    G = derived_digraph(seqs, l)
                    assert G == derived_successors_oracle(seqs, l)

    def test_reference_window3_edges(self, lg3b):
        seqs = set(all_output_sequences(lg3b).values())
        G = derived_digraph(seqs, 3)
        assert {w: set(s) for w, s in G.items()} == {
            2: {4}, 4: {8}, 8: {8}, 3: {6}, 6: {3}
        }

    def test_window2_is_ambiguous(self, lg3b):
        seqs = set(all_output_sequences(lg3b).values())
        G = derived_digraph(seqs, 2)
        # windows (1,0) from both sequences disagree on the successor
        assert len(G[2]) == 2
        assert not realizable(G)

    def test_single_constant_sequence(self):
        G = derived_digraph([OutputSeq((), (0,))], 1)
        assert G == {2: frozenset({2})}
        assert realizable(G)

    def test_empty_is_vacuously_realizable(self):
        assert realizable(derived_digraph([], 3))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            derived_digraph([OutputSeq((), (0,))], 0)


class TestMinStage:
    def test_two_attractor_reference(self, lg3b):
        r = min_stage_fibonacci(lg3b)
        assert r.l == 3
        assert r.partial.cols == (None, 4, 6, 8, None, 3, None, 8)
        assert r.window_map == (3, 2, 4, 3, 6, 6, 8, 8)
        assert r.total_completions == 8
        completions = tuple(r.completions())
        assert len(completions) == 8
        assert (1, 4, 6, 8, 2, 3, 5, 8) in {c.cols for c in completions}

    def test_shrinkable_reference(self, lg3a):
        r = min_stage_fibonacci(lg3a)
        assert r.l == 2
        assert r.window_map == (1, 1, 1, 1, 4, 4, 3, 3)
        assert {c.cols for c in r.completions()} == {(1, 3, 1, 4), (1, 4, 1, 4)}

    def test_already_fibonacci_input(self, fib4_transition):
        r = min_stage_fibonacci(fib4_transition)
        assert r.l == 4
        assert fib4_transition.cols in {c.cols for c in r.completions()}

    def test_completions_satisfy_shift_law(self, lg3b):
        for L in min_stage_fibonacci(lg3b).completions():
            assert is_fibonacci(L)

    def test_completions_reproduce_sequences(self, lg3b):
        r = min_stage_fibonacci(lg3b)
        for z in range(1, 9):
            s = output_sequence(lg3b, z)
            steps = len(s.preperiod) + 2 * len(s.period)
            for L in r.completions():
                assert simulate(L, r.window_map[z - 1], steps) == s.bits(steps)

    def test_free_column_accounting(self, lg3b):
        r = min_stage_fibonacci(lg3b)
        fixed = sum(1 for c in r.partial.cols if c is not None)
        assert fixed + len(r.partial.free_columns) == 1 << r.l

    def test_window_beyond_preperiod_plus_period(self):
        # l = 5 exceeds the longest preperiod plus period (3) by two: the
        # distinct sequences 10111... and 101101... share the four bits 1011,
        # which is within the Fine-Wilf bound P + 2r = 8
        L = TransitionMatrix(3, (8, 6, 3, 1, 3, 3, 3, 4))
        r = min_stage_fibonacci(L)
        assert r.l == 5
        assert max(len(s.preperiod) + len(s.period) for s in r.sequences) == 3
        for z in range(1, 9):
            s = output_sequence(L, z)
            steps = len(s.preperiod) + 2 * len(s.period) + r.l
            assert simulate(next(r.completions()), r.window_map[z - 1], steps) == s.bits(steps)

    def test_completions_start_with_the_least(self, lg3b):
        r = min_stage_fibonacci(lg3b)
        completions = [c.cols for c in r.completions()]
        assert completions[0] == (1, 4, 6, 8, 1, 3, 5, 8)
        assert completions == sorted(set(completions))
        assert len(completions) == r.total_completions == 8

    def test_next_completion_builds_one_matrix(self, monkeypatch):
        # 2^16 completions of 32 columns: the least is made alone, when asked for
        L = TransitionMatrix(4, (13, 4, 15, 1, 14, 5, 9, 6, 1, 4, 15, 10, 8, 13, 9, 5))
        built = record_matrix_builds(monkeypatch)
        r = min_stage_fibonacci(L)
        first = next(r.completions())
        assert (r.l, r.total_completions, built) == (5, 1 << 16, [5])
        assert first.cols == (1, 3, 5, 7, 9, 11, 13, 15, 18, 19, 21, 23, 25, 27, 29, 31,
                              1, 4, 5, 7, 9, 11, 13, 15, 18, 19, 21, 23, 25, 27, 29, 31)

    def test_refuses_a_window_past_max_window(self):
        L = TransitionMatrix(7, LONG_WINDOW_COLS)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^window length 32 exceeds the limit MAX_WINDOW = 26$"):
                min_stage_fibonacci(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    @pytest.mark.parametrize("seed", [2, 3])
    def test_refused_single_cycle_names_its_window(self, seed):
        # one random cycle through all 2^14 states: its Fine-Wilf keys have
        # 2^15 bits per state, which the parent built to name the l refused
        # and peaked at 71.4 MB; keys doubled from MAX_WINDOW + 1 bits settle
        # l = 27 (seed 2) at once and l = 32 (seed 3) at 54 bits
        n, rng = 14, random.Random(seed)
        order = list(range(1, (1 << n) + 1))
        rng.shuffle(order)
        cols = [0] * (1 << n)
        for a, b in zip(order, order[1:] + order[:1]):
            cols[a - 1] = b
        # l is 1 + the longest prefix two rotations of the output share
        bits = "".join("1" if z <= 1 << (n - 1) else "0" for z in order) * 2
        rotations = sorted(range(1 << n), key=lambda k: bits[k:k + 64])
        l = 1 + max(len(os.path.commonprefix([bits[a:a + 64], bits[b:b + 64]]))
                    for a, b in zip(rotations, rotations[1:]))
        assert l == {2: 27, 3: 32}[seed]
        L = TransitionMatrix(n, tuple(cols))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^window length {l} exceeds the limit"):
                min_stage_fibonacci(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    @pytest.mark.parametrize("cap", [1, 2, 5, 26])
    def test_refused_window_is_named_from_any_cap(self, monkeypatch, cap):
        # keys of cap + 1 bits, doubled up to four times, settle l = 32
        monkeypatch.setattr(gal2fib, "MAX_WINDOW", cap)
        with pytest.raises(ValueError, match=f"^window length 32 exceeds the limit MAX_WINDOW = {cap}$"):
            min_stage_fibonacci(TransitionMatrix(7, LONG_WINDOW_COLS))

    def test_max_window_itself_is_built(self, monkeypatch):
        L = TransitionMatrix(3, (8, 6, 3, 1, 3, 3, 3, 4))  # l = 5
        monkeypatch.setattr(gal2fib, "MAX_WINDOW", 5)
        assert min_stage_fibonacci(L).l == 5
        monkeypatch.setattr(gal2fib, "MAX_WINDOW", 4)
        with pytest.raises(ValueError, match="^window length 5 exceeds the limit MAX_WINDOW = 4$"):
            min_stage_fibonacci(L)


    def test_long_window_builds_nothing_of_2_to_the_l(self):
        # a random 13-stage permutation has l = 24 and cycles of thousands of
        # states: its prefix keys are capped at MAX_WINDOW + 1 bits, not the
        # Fine-Wilf bound, and its completions are made only when asked for,
        # so nothing of 2^24 entries is built. The parent peaked at 529.5 MB
        rng = random.Random(13)
        cols = list(range(1, (1 << 13) + 1))
        rng.shuffle(cols)
        L = TransitionMatrix(13, tuple(cols))
        tracemalloc.start()
        try:
            r = min_stage_fibonacci(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.l == 24
        assert r.total_completions == 1 << ((1 << 24) - len(r.partial.fixed))
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_capped_keys_are_the_full_keys_top_bits(self, n):
        rng = random.Random(n)
        perm = list(range(1, (1 << n) + 1))
        rng.shuffle(perm)
        for L in (TransitionMatrix(n, tuple(perm)), random_transition(rng, n)):
            ids = _SequenceIds()
            _sequence_table(L, ids)
            full_bound, full = ref_prefix_keys(ids)
            # distinct sequences differ within full_bound bits, so this l is exact
            l, keys = _window_length(ids, full_bound)
            assert keys == full
            for bound in (1, 5, MAX_WINDOW + 1, 2 * full_bound):
                capped = _prefix_keys(ids, bound)
                if bound <= full_bound:
                    assert capped == [key >> (full_bound - bound) for key in full]
                else:
                    assert [key >> (bound - full_bound) for key in capped] == full
                assert _window_length(ids, bound) == (min(l, bound + 1), capped)

class TestMinStageAgainstSearch:
    def test_differential_matrices(self):
        for L in differential_matrices():
            assert_matches_search(L)

    @seed(4)
    @settings(deadline=None, max_examples=150)
    @given(maps(6))
    def test_random_maps(self, L):
        assert_matches_search(L)

    def test_prefixes_need_the_full_fine_wilf_bound(self):
        # periods 3 and 4 share the 3 + 4 - 2 = 5 bits 00100, more than
        # P + r = 4, so shorter prefixes would not tell them apart. Two
        # cycles output 001 and 0010; every other state copies the column of
        # a cycle state with its output bit, so it adds no sequence
        L = TransitionMatrix(4, (9, 13, 9, 9, 9, 9, 9, 9, 10, 1, 12, 2, 11, 10, 10, 10))
        assert min_stage_fibonacci(L).l == 6
        assert_matches_search(L)

    def test_single_sequence(self):
        # from one stage on, some states output 1 first and the others 0,
        # so only a 0-stage register has one sequence; it has no output
        # bit, and is refused
        with pytest.raises(ValueError, match="^a 0-stage matrix has no output bit$"):
            min_stage_fibonacci(TransitionMatrix(0, (1,)))


class TestCompletionAtLongWindows:
    """P, the free columns and the completions against the column-by-column
    oracle at window lengths of 14 to 16, where almost every column is free."""

    def check(self, L):
        got = min_stage_fibonacci(L)
        partial, free, completions = least_completion_oracle(L, got.window_map, got.l, 20)
        assert got.partial.cols == partial
        assert got.partial.free_columns == free
        assert [c.cols for c in itertools.islice(got.completions(), len(completions))] == completions
        assert got.total_completions == 1 << len(free)
        return got

    def test_saturating_counter(self):
        got = self.check(galois_transition(parse_fsr_file(COUNTER5)))
        assert (got.l, len(got.partial.free_columns)) == (14, 16356)

    @pytest.mark.parametrize("seed_, l", [(9, 15), (24, 15), (50, 16), (78, 16)])
    def test_nine_stage_registers(self, seed_, l):
        got = self.check(sparse_galois(random.Random(seed_), 9))
        assert got.l == l



def assert_texts_match(L):
    """P and the least completion as delta_pieces writes them, from P's fixed
    map, against the texts of the per-entry P and of the dense completion."""
    got = min_stage_fibonacci(L)
    size, fixed = 1 << got.l, got.partial.fixed
    assert "".join(delta_pieces(size, fixed)) == ref_format_partial(size, fixed)
    least = format_delta(size, next(got.completions()).cols)
    assert "".join(delta_pieces(size, fixed, least=True)) == least
    return got


class TestLeastCompletionText:
    @seed(17)
    @settings(deadline=None, max_examples=150)
    @given(maps(9))
    def test_random_maps(self, L):
        assert_texts_match(L)

    def test_saturating_counter(self):
        assert assert_texts_match(galois_transition(parse_fsr_file(COUNTER5))).l == 14

    @pytest.mark.parametrize("seed_, l", [(9, 15), (24, 15), (50, 16), (78, 16)])
    def test_nine_stage_registers(self, seed_, l):
        assert assert_texts_match(sparse_galois(random.Random(seed_), 9)).l == l

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_round_trips_fix_every_column(self, n):
        # a conjugated Fibonacci register has l = n, so every column is fixed
        rng = random.Random(n)
        for _ in range(3):
            L_f = galois_transition(parse_fsr_file(random_feedback_text(rng, n)))
            got = assert_texts_match(random_conjugate(rng, L_f))
            assert (got.l, len(got.partial.fixed)) == (n, 1 << n)

class TestPartialTransition:
    # P of the two-attractor register: (None, 4, 6, 8, None, 3, None, 8)
    FIXED = {2: 4, 3: 6, 4: 8, 6: 3, 8: 8}

    @pytest.mark.parametrize("bad", [0, 9])
    @pytest.mark.parametrize("at", [0, 4, 7])
    def test_rejects_out_of_range_column(self, bad, at):
        fixed = dict(self.FIXED)
        fixed[at + 1] = bad
        with pytest.raises(ValueError, match=f"^column value {bad} out of range$"):
            PartialTransition(3, fixed)

    def test_reports_the_first_bad_column(self):
        # the lowest bad column, whatever order the map holds them in
        with pytest.raises(ValueError, match="^column value 12 out of range$"):
            PartialTransition(3, {8: 9, 3: 0, 2: 12})

    @pytest.mark.parametrize("key", [0, -1, 9, 100])
    def test_rejects_out_of_range_key(self, key):
        fixed = {**self.FIXED, key: 1}
        with pytest.raises(ValueError, match=rf"^column {key} out of range \[1, 8\]$"):
            PartialTransition(3, fixed)

    def test_reports_the_lowest_bad_key_before_any_value(self):
        with pytest.raises(ValueError, match=r"^column -2 out of range \[1, 8\]$"):
            PartialTransition(3, {2: 0, 9: 1, -2: 1})

    def test_accepts_all_free_and_all_fixed(self):
        assert PartialTransition(2, {}).cols == (None,) * 4
        assert PartialTransition(2, {1: 1, 2: 4, 3: 1, 4: 4}).cols == (1, 4, 1, 4)

    def test_dense_view_and_free_columns(self):
        P = PartialTransition(3, dict(reversed(self.FIXED.items())))
        assert P.cols == (None, 4, 6, 8, None, 3, None, 8)
        assert P.free_columns == (1, 5, 7)


# every matrix of one stage and of two
SMALL_MATRICES = [
    TransitionMatrix(q, cols)
    for q in (1, 2) for cols in itertools.product(range(1, (1 << q) + 1), repeat=1 << q)
]


def random_feedback_text(rng, n):
    """A Fibonacci file whose feedback XORs 2..4 random monomials of degree 1..3."""
    monomials = (
        " & ".join(f"x{i + 1}" for i in rng.sample(range(n), rng.randint(1, 3)))
        for _ in range(rng.randint(2, 4))
    )
    return f"n={n} type=fib\nf{n} = " + " ^ ".join(monomials) + "\n"


class TestMinStageGalois:
    @seed(16)
    @settings(deadline=None, max_examples=60)
    @given(maps(3))
    def test_no_fewer_stages_by_brute_force(self, L):
        G, _ = min_stage_galois(L)
        assert equivalent(L, G)
        assert not any(equivalent(L, M) for M in SMALL_MATRICES if M.n < G.n)

    def test_state_map_keeps_each_sequence(self):
        rng = random.Random(16)
        matrices = differential_matrices()
        matrices += [random_transition(rng, n) for n in (9, 10) for _ in range(3)]
        for L in matrices:
            G, state_map = min_stage_galois(L)
            ids = _SequenceIds()
            seq_l, seq_g = _sequence_table(L, ids), _sequence_table(G, ids)
            assert [seq_g[z - 1] for z in state_map] == seq_l
            assert set(seq_g) == set(seq_l)
            # distinct sequences need distinct states, whose output is their first bit
            first = [s.bits(1)[0] for s in set(all_output_sequences_oracle(L).values())]
            need = max(first.count(1), first.count(0))
            assert 1 << (G.n - 1) >= need
            assert G.n == 1 or 1 << (G.n - 2) < need

    @pytest.mark.parametrize("n", range(4, 17))
    def test_fibonacci_registers_keep_their_stages(self, n):
        # a Fibonacci state is its own first n outputs, so its 2^n sequences differ
        rng = random.Random(n)
        dense = fib_transition(StructureMatrix(n, tuple(rng.choice((1, 2)) for _ in range(1 << n))))
        sparse = galois_transition(parse_fsr_file(random_feedback_text(rng, n)))
        for L in (dense, sparse):
            G, state_map = min_stage_galois(L)
            assert G.n == n
            assert sorted(state_map) == list(range(1, (1 << n) + 1))

    @seed(17)
    @settings(deadline=None, max_examples=100)
    @given(maps(7))
    def test_fibonacci_window_is_no_shorter(self, L):
        # a Fibonacci realization is a Galois one too
        assert min_stage_fibonacci(L).l >= min_stage_galois(L)[0].n

    def test_fixtures(self, lg3a, lg3b):
        # the shrinkable register outputs 1^inf, 0^inf and 0 1^inf; state 2
        # copies state 1's column
        assert min_stage_galois(lg3a) == (
            TransitionMatrix(2, (1, 1, 3, 1)), (1, 1, 1, 1, 3, 3, 4, 4))
        # five sequences, three that start with 1; states 4, 7 and 8 are padding
        assert min_stage_galois(lg3b) == (
            TransitionMatrix(3, (5, 6, 2, 5, 1, 6, 1, 1)), (1, 3, 2, 1, 5, 5, 6, 6))

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError, match="0-stage"):
            min_stage_galois(TransitionMatrix(0, (1,)))


class TestEquivalent:
    def test_reference_pair(self, lf4, lg4):
        result = equivalent(lf4, lg4)
        assert result
        assert result.forward[1] is not None
        # the matched partner of state 1 generates the same stream
        j = result.forward[1]
        assert simulate(lg4, j, 32) == simulate(lf4, 1, 32)

    def test_completion_covers_but_exceeds_source(self, lg3a):
        # the 2-stage completion realizes every source sequence yet adds one
        # of its own, so the sets differ
        result = equivalent(lg3a, TransitionMatrix(2, (1, 3, 1, 4)))
        assert not result
        assert all(j is not None for j in result.forward.values())
        assert None in result.backward.values()

    def test_trivial_mismatch(self):
        assert not equivalent(TransitionMatrix(1, (1, 2)), TransitionMatrix(1, (2, 1)))

    def test_witness_is_bidirectional(self, lf4, lg4):
        result = equivalent(lf4, lg4)
        seq_a = all_output_sequences(lf4)
        seq_b = all_output_sequences(lg4)
        for i, j in result.forward.items():
            assert seq_a[i] == seq_b[j]
        for j, i in result.backward.items():
            assert seq_b[j] == seq_a[i]

    def test_missing_match_reported(self):
        result = equivalent(TransitionMatrix(1, (1, 2)), TransitionMatrix(1, (1, 1)))
        assert not result
        assert result.forward[2] is None


matrices = st.integers(1, 8).flatmap(
    lambda n: st.one_of(
        st.lists(st.integers(1, 1 << n), min_size=1 << n, max_size=1 << n),
        st.permutations(range(1, (1 << n) + 1)),
    ).map(lambda cols: TransitionMatrix(n, tuple(cols)))
)


class TestEquivalentAgainstOracle:
    """equivalent against the OutputSeq-keyed oracle: equal, and every
    forward and backward entry."""

    @seed(6)
    @settings(deadline=None, max_examples=150)
    @given(matrices, matrices)
    def test_random_pairs(self, A, B):
        # the two sizes differ in most draws
        assert_matches_equivalent_oracle(A, B)

    @seed(7)
    @settings(deadline=None, max_examples=100)
    @given(matrices, st.randoms(use_true_random=False))
    def test_random_conjugates(self, L, rng):
        got = assert_matches_equivalent_oracle(L, random_conjugate(rng, L))
        assert got.equal
        assert assert_matches_equivalent_oracle(L, L).equal

    def test_differential_matrices_against_conjugates(self):
        rng = random.Random(11)
        for L in differential_matrices():
            assert assert_matches_equivalent_oracle(L, random_conjugate(rng, L)).equal

    def test_purely_periodic_tail(self):
        # 2 -> 3 -> 1 -> 3 and 4 -> 2: state 3 is on the cycle 0101...,
        # and states 2 and 4 prepend the bit the period ends with, so their
        # sequences are rotations of the cycle's with no preperiod
        L = TransitionMatrix(2, (3, 3, 1, 2))
        seqs = all_output_sequences(L)
        assert seqs[2] == OutputSeq((), (1, 0))
        assert seqs[4] == OutputSeq((), (0, 1))
        got = assert_matches_equivalent_oracle(L, TransitionMatrix(2, (3, 4, 1, 2)))
        assert got.equal
        assert got.forward == {1: 1, 2: 1, 3: 3, 4: 3}
        assert got.backward == {1: 1, 2: 1, 3: 3, 4: 3}

    def test_one_word_on_two_cycles_at_different_rotations(self):
        # 1 <-> 5 is first walked from its 1-state, 6 <-> 3 from its
        # 0-state (via 2): both carry 10, at opposite rotations
        L = TransitionMatrix(3, (5, 6, 6, 4, 1, 3, 7, 8))
        seqs = all_output_sequences(L)
        assert seqs[1] == seqs[3] == seqs[2] == OutputSeq((), (1, 0))
        assert seqs[5] == seqs[6] == OutputSeq((), (0, 1))
        got = assert_matches_equivalent_oracle(L, L)
        assert got.equal
        assert [got.forward[i] for i in (1, 2, 3, 5, 6)] == [1, 1, 1, 5, 5]
        # without the constant-0 sequence of states 7 and 8
        B = TransitionMatrix(3, (5, 2, 3, 4, 1, 5, 5, 5))
        assert not assert_matches_equivalent_oracle(L, B).equal

    def test_builds_no_output_seq(self, monkeypatch):
        rng = random.Random(12)
        pairs = [(L, random_conjugate(rng, L)) for L in differential_matrices()[::7]]
        want = [equivalent_oracle(A, B) for A, B in pairs]

        def refuse(self, *args, **kwargs):
            raise AssertionError("equivalent built an OutputSeq")

        monkeypatch.setattr(OutputSeq, "__init__", refuse)
        for (A, B), expected in zip(pairs, want):
            got = equivalent(A, B)
            assert (got.equal, got.forward, got.backward) == expected
