import itertools
import random

import pytest

from fsrkit import (
    OutputSeq,
    StructureMatrix,
    TransitionMatrix,
    all_output_sequences,
    derived_digraph,
    equivalent,
    fib_transition,
    format_sequence,
    galois_from_sequences,
    is_fibonacci,
    min_stage_fibonacci,
    normalize_sequence,
    output_sequence,
    parse_sequence,
    realizable,
    simulate,
)

from fsrkit.stp import encode_state

from conftest import LF4_COLS, LG3_SHRINKABLE_COLS, LG3_TWO_ATTRACTORS_COLS, LG4_COLS


@pytest.fixture
def lg3a() -> TransitionMatrix:
    return TransitionMatrix(3, LG3_SHRINKABLE_COLS)


@pytest.fixture
def lg3b() -> TransitionMatrix:
    return TransitionMatrix(3, LG3_TWO_ATTRACTORS_COLS)


def random_transition(rng, n):
    size = 1 << n
    return TransitionMatrix(n, tuple(rng.randint(1, size) for _ in range(size)))


# ---------------------------------------------------------------------------
# Reference oracles: one cycle walk per state, slice-encoded windows and the
# divisor-loop primitivity test
# ---------------------------------------------------------------------------

def all_output_sequences_oracle(L):
    return {i: output_sequence(L, i) for i in range(1, (1 << L.n) + 1)}


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

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            OutputSeq((), (1, 0, 1, 0))
        with pytest.raises(ValueError):
            OutputSeq((0,), (0,))
        with pytest.raises(ValueError):
            OutputSeq((), ())

    def test_bits_unrolls(self):
        s = OutputSeq((1, 1), (0,))
        assert s.bits(6) == (1, 1, 0, 0, 0, 0)

    def test_text_round_trip(self):
        s = parse_sequence("pre=110 per=10")
        assert s == OutputSeq((1,), (1, 0))  # preperiod shrinks under normalization
        assert parse_sequence(format_sequence(s)) == s

    def test_text_empty_preperiod(self):
        assert parse_sequence("pre= per=10") == OutputSeq((), (1, 0))

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sequence("per=10")


class TestOutputSequence:
    def test_constant_zero_tail(self, lg3a):
        assert output_sequence(lg3a, 5) == OutputSeq((), (0,))

    def test_full_cycle(self, lf4, fib4_transition):
        s = output_sequence(fib4_transition, 1)
        assert s.preperiod == ()
        assert len(s.period) == 16

    def test_period_two(self, lg3b):
        assert output_sequence(lg3b, 1) == OutputSeq((), (1, 0))

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


class TestDerivedDigraph:
    def test_matches_slice_encoding_oracle(self):
        rng = random.Random(7)
        for n in range(1, 7):
            for _ in range(4):
                seqs = set(all_output_sequences(random_transition(rng, n)).values())
                for l in range(1, 13):
                    G = derived_digraph(seqs, l)
                    assert G.successors == derived_successors_oracle(seqs, l)

    def test_reference_window3_edges(self, lg3b):
        seqs = set(all_output_sequences(lg3b).values())
        G = derived_digraph(seqs, 3)
        assert {w: set(s) for w, s in G.successors.items()} == {
            2: {4}, 4: {8}, 8: {8}, 3: {6}, 6: {3}
        }

    def test_window2_is_ambiguous(self, lg3b):
        seqs = set(all_output_sequences(lg3b).values())
        G = derived_digraph(seqs, 2)
        # windows (1,0) from both sequences disagree on the successor
        assert len(G.successors[2]) == 2
        assert not realizable(G)

    def test_single_constant_sequence(self):
        G = derived_digraph([OutputSeq((), (0,))], 1)
        assert G.successors == {2: frozenset({2})}
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
        assert len(r.completions) == 8
        assert (1, 4, 6, 8, 2, 3, 5, 8) in {c.cols for c in r.completions}

    def test_shrinkable_reference(self, lg3a):
        r = min_stage_fibonacci(lg3a)
        assert r.l == 2
        assert r.window_map == (1, 1, 1, 1, 4, 4, 3, 3)
        assert {c.cols for c in r.completions} == {(1, 3, 1, 4), (1, 4, 1, 4)}

    def test_already_fibonacci_input(self, fib4_transition):
        r = min_stage_fibonacci(fib4_transition)
        assert r.l == 4
        assert fib4_transition.cols in {c.cols for c in r.completions}

    def test_completions_satisfy_shift_law(self, lg3b):
        for L in min_stage_fibonacci(lg3b).completions:
            assert is_fibonacci(L)

    def test_completions_reproduce_sequences(self, lg3b):
        r = min_stage_fibonacci(lg3b)
        for z in range(1, 9):
            s = output_sequence(lg3b, z)
            steps = len(s.preperiod) + 2 * len(s.period)
            for L in r.completions:
                assert simulate(L, r.window_map[z - 1], steps) == s.bits(steps)

    def test_free_column_accounting(self, lg3b):
        r = min_stage_fibonacci(lg3b)
        fixed = sum(1 for c in r.partial.cols if c is not None)
        assert fixed + len(r.free_columns) == 1 << r.l

    def test_window_beyond_preperiod_plus_period(self):
        # l = 5 exceeds the longest preperiod plus period (3) by two; the
        # search runs up to the Fine-Wilf bound P + 2r
        L = TransitionMatrix(3, (8, 6, 3, 1, 3, 3, 3, 4))
        r = min_stage_fibonacci(L)
        assert r.l == 5
        assert max(len(s.preperiod) + len(s.period) for s in r.sequences) == 3
        for z in range(1, 9):
            s = output_sequence(L, z)
            steps = len(s.preperiod) + 2 * len(s.period) + r.l
            assert simulate(r.completions[0], r.window_map[z - 1], steps) == s.bits(steps)

    def test_max_free_cap(self, lg3b):
        r = min_stage_fibonacci(lg3b, max_free=1)
        assert r.total_completions == 8
        assert len(r.completions) == 1
        assert r.completions[0].cols == (1, 4, 6, 8, 1, 3, 5, 8)


class TestGaloisFromSequences:
    def test_constant_zero(self):
        real = galois_from_sequences([OutputSeq((), (0,))])
        assert real.n == 1
        assert real.initial_states == (2,)
        assert real.matrix.column(2) == 2

    def test_two_attractor_sequences(self, lg3b):
        seqs = sorted(set(all_output_sequences(lg3b).values()),
                      key=lambda s: (s.preperiod, s.period))
        real = galois_from_sequences(seqs)
        for seq, x0 in zip(seqs, real.initial_states):
            steps = len(seq.preperiod) + 2 * len(seq.period)
            assert simulate(real.matrix, x0, steps) == seq.bits(steps)

    def test_preperiod_one(self):
        seq = OutputSeq((1,), (0,))
        real = galois_from_sequences([seq])
        assert real.n == 2
        assert simulate(real.matrix, real.initial_states[0], 4) == (1, 0, 0, 0)

    def test_random_sequences_reproduced(self):
        rng = random.Random(99)
        for _ in range(50):
            pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 3))]
            per = [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]
            seq = normalize_sequence(pre, per)
            real = galois_from_sequences([seq])
            steps = len(seq.preperiod) + 2 * len(seq.period)
            assert simulate(real.matrix, real.initial_states[0], steps) == seq.bits(steps)

    def test_needs_input(self):
        with pytest.raises(ValueError):
            galois_from_sequences([])


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
